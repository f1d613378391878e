package expt

import (
	"context"
	"fmt"
	"io"
	"time"

	"sdss/internal/load"
	"sdss/internal/qe"
	"sdss/internal/region"
	"sdss/internal/skygen"
	"sdss/internal/sphere"
	"sdss/internal/stats"
)

// AblationContainerDepth sweeps the clustering-unit granularity: shallower
// containers mean fewer, larger units (cheap loads, coarse pruning); deeper
// containers prune queries harder but multiply load touches.
// store.DefaultContainerDepth fixes depth 5; this ablation justifies it.
func AblationContainerDepth(cfg Config, w io.Writer) error {
	section(w, "A1", "ablation: container depth (clustering-unit granularity)")
	ch, err := skygen.GenerateChunk(skygen.Default(cfg.Seed+9, cfg.Objects()), 0, 1)
	if err != nil {
		return err
	}
	center := ch.Photo[0]
	tbl := stats.NewTable("Depth", "Containers", "Load time", "Cone query", "Records touched")
	for _, depth := range []int{3, 5, 7} {
		tgt, err := load.NewTarget("", depth, 1)
		if err != nil {
			return err
		}
		start := time.Now()
		if _, err := tgt.LoadChunk(ch); err != nil {
			return err
		}
		loadT := time.Since(start)
		tgt.Sort()
		engine := &qe.Engine{Photo: tgt.Photo, Tag: tgt.Tag, Spec: tgt.Spec}
		q := fmt.Sprintf("SELECT COUNT(*) FROM photoobj WHERE CIRCLE(%v, %v, 15)", center.RA, center.Dec)
		var queryT time.Duration
		for i := 0; i < 3; i++ {
			s := time.Now()
			rows, err := engine.ExecuteString(context.Background(), q)
			if err != nil {
				return err
			}
			if _, err := rows.Collect(); err != nil {
				return err
			}
			if t := time.Since(s); queryT == 0 || t < queryT {
				queryT = t
			}
		}
		// Candidate records under the cone's coverage at this granularity.
		cov, err := region.Cover(region.CircleRADec(center.RA, center.Dec, 15), 10)
		if err != nil {
			return err
		}
		rs := cov.RangeSet()
		candidates := 0
		for _, cid := range tgt.Photo.Containers() {
			if rs.OverlapsTrixel(cid) {
				candidates += tgt.Photo.Container(cid).Count()
			}
		}
		tbl.AddRow(depth, tgt.Photo.NumContainers(), loadT.Round(time.Millisecond),
			queryT.Round(time.Microsecond), candidates)
	}
	fmt.Fprint(w, tbl)
	return nil
}

// AblationCoverageRanges compares the two coverage representations: sorted
// ID ranges versus an explicit leaf-trixel list. Ranges are what the
// archive stores; this quantifies why.
func AblationCoverageRanges(cfg Config, w io.Writer) error {
	section(w, "A2", "ablation: coverage as ID ranges vs explicit trixel list")
	tbl := stats.NewTable("Query", "Depth", "Leaf trixels", "Ranges", "Compression")
	queries := []struct {
		name string
		reg  *region.Region
	}{
		{"1° cone", region.CircleRADec(180, 30, 60)},
		{"10° cone", region.CircleRADec(180, 30, 600)},
		{"galactic band ±10°", region.LatBand(sphere.Galactic, -10, 10)},
		{"Figure 4 dual band", region.LatBand(sphere.Equatorial, 20, 40).
			Intersect(region.LatBand(sphere.Galactic, -15, 15))},
	}
	for _, q := range queries {
		for _, depth := range []int{8, 10} {
			cov, err := region.Cover(q.reg, depth)
			if err != nil {
				return err
			}
			rs := cov.RangeSet()
			leaves := rs.Count()
			tbl.AddRow(q.name, depth, leaves, rs.Len(),
				fmt.Sprintf("%.0f×", float64(leaves)/float64(max(rs.Len(), 1))))
		}
	}
	fmt.Fprint(w, tbl)
	fmt.Fprintf(w, "a range is 16 bytes; an explicit leaf list costs 8 bytes per trixel\n")
	return nil
}

// AblationCoverDepth sweeps the query-coverage depth: deeper coverage means
// tighter candidate sets but more classification work per query.
func AblationCoverDepth(cfg Config, w io.Writer) error {
	h, err := NewHarness(cfg)
	if err != nil {
		return err
	}
	section(w, "A3", "ablation: coverage depth for query pruning")
	center := h.Photo[0]
	q := fmt.Sprintf("SELECT COUNT(*) FROM photoobj WHERE CIRCLE(%v, %v, 30)", center.RA, center.Dec)
	tbl := stats.NewTable("Cover depth", "Cover time", "Ranges", "Query time")
	for _, depth := range []int{6, 8, 10, 12} {
		cov, err := region.Cover(region.CircleRADec(center.RA, center.Dec, 30), depth)
		if err != nil {
			return err
		}
		start := time.Now()
		for i := 0; i < 10; i++ {
			if _, err := region.Cover(region.CircleRADec(center.RA, center.Dec, 30), depth); err != nil {
				return err
			}
		}
		coverT := time.Since(start) / 10

		engine := &qe.Engine{
			Photo: h.Archive.PhotoStore(), Tag: h.Archive.TagStore(),
			Spec: h.Archive.SpecStore(), CoverDepth: depth,
		}
		var queryT time.Duration
		for i := 0; i < 3; i++ {
			s := time.Now()
			rows, err := engine.ExecuteString(context.Background(), q)
			if err != nil {
				return err
			}
			if _, err := rows.Collect(); err != nil {
				return err
			}
			if t := time.Since(s); queryT == 0 || t < queryT {
				queryT = t
			}
		}
		tbl.AddRow(depth, coverT.Round(time.Microsecond), cov.RangeSet().Len(),
			queryT.Round(time.Microsecond))
	}
	fmt.Fprint(w, tbl)
	return nil
}

// Experiment couples an ID to its runner.
type Experiment struct {
	ID    string
	Title string
	Run   func(Config, io.Writer) error
}

// All lists every experiment in paper order.
func All() []Experiment {
	return []Experiment{
		{"E1", "Table 1: dataset sizes", Table1},
		{"E2", "Figure 1: drift-scan data rate", Figure1},
		{"E3", "Figure 2: archive replication flow", Figure2},
		{"E4", "Figure 3: HTM subdivision", Figure3},
		{"E5", "Figure 4: dual-coordinate query", Figure4},
		{"E6", "scan machine scaling", ScanScaling},
		{"E7", "tag vs full records", TagVsFull},
		{"E8", "1% sample debugging", SampleDebugging},
		{"E9", "hash machine lens query", HashMachineLens},
		{"E10", "river sorting network", RiverSort},
		{"E11", "clustered data loading", DataLoading},
		{"E12", "Cartesian vs trigonometry", CartesianVsTrig},
		{"E13", "ASAP first result", ASAPFirstResult},
		{"E14", "index vs scan crossover", IndexVsScanCrossover},
		{"A1", "ablation: container depth", AblationContainerDepth},
		{"A2", "ablation: coverage ranges", AblationCoverageRanges},
		{"A3", "ablation: coverage depth", AblationCoverDepth},
	}
}
