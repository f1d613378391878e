package sdss

// One benchmark per table and figure of the paper, plus its quantified
// performance claims and the design-choice ablations. Each wraps the
// corresponding experiment in internal/expt, which prints the
// paper-versus-measured table; the benchmark numbers time a full
// regeneration of that experiment. `go run ./bench` measures the archive
// end to end.

import (
	"io"
	"os"
	"testing"

	"sdss/internal/expt"
)

// benchCfg is the default benchmark scale: 1e-4 of the 3×10⁸-object survey
// (≈30,000 objects). Override with SKYBENCH_SCALE if desired.
func benchCfg() expt.Config {
	return expt.Config{Scale: 1e-4, Seed: 1, Nodes: 20}
}

// benchOut prints experiment tables once (first iteration), so `go test
// -bench` output doubles as the experiment report.
func runExperiment(b *testing.B, fn func(expt.Config, io.Writer) error) {
	b.Helper()
	cfg := benchCfg()
	// Build the shared harness outside the timed region.
	if _, err := expt.NewHarness(cfg); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		w := io.Discard
		if i == 0 {
			w = os.Stdout
		}
		if err := fn(cfg, w); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkTable1DatasetSizes(b *testing.B)     { runExperiment(b, expt.Table1) }
func BenchmarkFigure1DriftScanRate(b *testing.B)   { runExperiment(b, expt.Figure1) }
func BenchmarkFigure2ReplicationFlow(b *testing.B) { runExperiment(b, expt.Figure2) }
func BenchmarkFigure3HTMSubdivision(b *testing.B)  { runExperiment(b, expt.Figure3) }
func BenchmarkFigure4DualConstraintQuery(b *testing.B) {
	runExperiment(b, expt.Figure4)
}
func BenchmarkScanMachineScaling(b *testing.B)   { runExperiment(b, expt.ScanScaling) }
func BenchmarkTagVsFullScan(b *testing.B)        { runExperiment(b, expt.TagVsFull) }
func BenchmarkSampleDebugging(b *testing.B)      { runExperiment(b, expt.SampleDebugging) }
func BenchmarkHashMachineLens(b *testing.B)      { runExperiment(b, expt.HashMachineLens) }
func BenchmarkRiverSort(b *testing.B)            { runExperiment(b, expt.RiverSort) }
func BenchmarkDataLoading(b *testing.B)          { runExperiment(b, expt.DataLoading) }
func BenchmarkCartesianVsTrig(b *testing.B)      { runExperiment(b, expt.CartesianVsTrig) }
func BenchmarkASAPFirstResult(b *testing.B)      { runExperiment(b, expt.ASAPFirstResult) }
func BenchmarkIndexVsScanCrossover(b *testing.B) { runExperiment(b, expt.IndexVsScanCrossover) }
func BenchmarkContainerDepth(b *testing.B)       { runExperiment(b, expt.AblationContainerDepth) }
func BenchmarkCoverageRangesVsList(b *testing.B) { runExperiment(b, expt.AblationCoverageRanges) }
func BenchmarkCoverDepthSelection(b *testing.B)  { runExperiment(b, expt.AblationCoverDepth) }
