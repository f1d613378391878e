package expt

import (
	"fmt"
	"io"
	"math"
	"math/rand"
	"time"

	"sdss/internal/catalog"
	"sdss/internal/driftscan"
	"sdss/internal/htm"
	"sdss/internal/paper/tiers"
	"sdss/internal/region"
	"sdss/internal/sphere"
	"sdss/internal/stats"
)

// Table1 regenerates the paper's Table 1 (sizes of the SDSS data sets):
// per-product item counts and byte sizes, measured from the archive's real
// encodings where the product is implemented and from stated per-item
// models otherwise, extrapolated to survey scale.
func Table1(cfg Config, w io.Writer) error {
	h, err := NewHarness(cfg)
	if err != nil {
		return err
	}
	section(w, "E1 / Table 1", "Sizes of various SDSS datasets")
	st := h.Archive.Stats()
	f := cfg.ScaleFactor()

	// Modeled per-item sizes for products the archive stores externally.
	const (
		rawBytesPerObject = 133e3 // 40 TB / 3e8 objects, drift-scan pixels
		spectrumBytes     = 60e3  // 8k-bin flux+error+mask spectrum
		atlasCutoutBytes  = 1.5e3 // 25×25 px × 2 B, compressed
		skyMapTileBytes   = 2e6   // lossy-compressed 4× binned tile
		surveyDescBytes   = 1e9   // fixed metadata volume
	)
	nSpectra := float64(st.Spectra) * f
	nAtlas := float64(st.PhotoObjects) * f * 5 // five cutouts per object
	nSkyTiles := 5e5

	tbl := stats.NewTable("Product", "Paper items", "Paper size", "Ours items", "Ours size", "Basis")
	tbl.AddRow("Raw observational data", "-", "40 TB", "-",
		stats.ByteSize(rawBytesPerObject*float64(st.PhotoObjects)*f), "model: 133 KB/object of pixels")
	tbl.AddRow("Redshift Catalog", "10^6", "2 GB", stats.Count(nSpectra),
		stats.ByteSize(float64(catalog.SpecObjSize)*nSpectra+1.5e3*nSpectra),
		"measured codec + lines/errors rider")
	tbl.AddRow("Survey Description", "10^5", "1 GB", "10^5",
		stats.ByteSize(surveyDescBytes), "model: fixed metadata")
	tbl.AddRow("Simplified Catalog", "3x10^8", "60 GB", stats.Count(float64(st.TagObjects)*f),
		stats.ByteSize(float64(st.TagBytes)*f), "measured: tag store bytes")
	tbl.AddRow("1D Spectra", "10^6", "60 GB", stats.Count(nSpectra),
		stats.ByteSize(spectrumBytes*nSpectra), "model: 60 KB/spectrum")
	tbl.AddRow("Atlas Images", "10^9", "1.5 TB", stats.Count(nAtlas),
		stats.ByteSize(atlasCutoutBytes*nAtlas), "model: 1.5 KB/cutout")
	tbl.AddRow("Compressed Sky Map", "5x10^5", "1.0 TB", "5x10^5",
		stats.ByteSize(skyMapTileBytes*nSkyTiles), "model: 2 MB/tile")
	tbl.AddRow("Full photometric catalog", "3x10^8", "400 GB", stats.Count(float64(st.PhotoObjects)*f),
		stats.ByteSize(float64(st.PhotoBytes)*f), "measured: photo store bytes")
	fmt.Fprint(w, tbl)
	fmt.Fprintf(w, "measured at scale %.2g (%d objects), extrapolated ×%.3g\n",
		cfg.Scale, st.PhotoObjects, f)
	return nil
}

// Figure1 exercises the drift-scan camera substitute: the pixel stream and
// reduction pipeline must sustain the camera's 8 MB/s.
func Figure1(cfg Config, w io.Writer) error {
	section(w, "E2 / Figure 1", "drift-scan camera data rate (8 MB/s requirement)")
	cam := &driftscan.Camera{Seed: cfg.Seed + 2, ObjectsPerField: 120}
	const fields = 4
	var detections, matched, bright int
	start := time.Now()
	bytes, err := cam.Strip(756, 3, fields, func(f *driftscan.Field) error {
		dets := driftscan.Reduce(f, 1000, 15, 5)
		detections += len(dets)
		m, b := driftscan.MatchTruth(f, dets, 3, 20000)
		matched += m
		bright += b
		return nil
	})
	if err != nil {
		return err
	}
	elapsed := time.Since(start)
	rate := float64(bytes) / elapsed.Seconds()
	tbl := stats.NewTable("Metric", "Paper", "Measured")
	tbl.AddRow("camera data rate", "8 MB/s", "(requirement)")
	tbl.AddRow("pipeline throughput", "≥ 8 MB/s", fmt.Sprintf("%.1f MB/s", rate/1e6))
	tbl.AddRow("fields processed", "-", fields)
	tbl.AddRow("raw bytes", "-", stats.ByteSize(float64(bytes)))
	tbl.AddRow("detections", "-", detections)
	tbl.AddRow("bright completeness", "-", fmt.Sprintf("%.1f%% (%d/%d)",
		100*float64(matched)/float64(max(bright, 1)), matched, bright))
	fmt.Fprint(w, tbl)
	if rate < 8e6 {
		fmt.Fprintf(w, "WARNING: pipeline below camera rate\n")
	}
	return nil
}

// Figure2 replays the archive replication pipeline on the virtual clock and
// reports per-tier latency and holdings — the data-flow diagram as numbers.
func Figure2(cfg Config, w io.Writer) error {
	section(w, "E3 / Figure 2", "archive data flow T → OA → MSA → LA → public")
	epoch := time.Date(2000, 4, 1, 0, 0, 0, 0, time.UTC)
	sim := tiers.NewSim(tiers.DefaultDelays(), epoch)
	const nights = 365
	const nightlyBytes = 20e9 // "about 20 GB will be arriving daily"
	for n := 0; n < nights; n++ {
		sim.Observe(epoch.Add(time.Duration(n)*tiers.Day), int64(nightlyBytes))
	}
	sim.RunUntil(epoch.Add(nights * tiers.Day))
	paper := map[tiers.Tier]string{
		tiers.Telescope:     "-",
		tiers.Operational:   "1 day",
		tiers.MasterScience: "~3 weeks",
		tiers.Local:         "~7 weeks",
		tiers.Public:        "1-2 years",
	}
	tbl := stats.NewTable("Tier", "Paper latency", "Measured latency", "Holdings @1yr", "Bytes @1yr")
	for _, tier := range tiers.Tiers() {
		mean, _, _, n := sim.TierLatency(tier)
		lat := "-"
		if n > 0 && tier != tiers.Telescope {
			lat = fmt.Sprintf("%.0f days", mean.Hours()/24)
		}
		chunks, bytes := sim.Holdings(tier)
		tbl.AddRow(tier.String(), paper[tier], lat, chunks, stats.ByteSize(float64(bytes)))
	}
	sim.Drain()
	fmt.Fprint(w, tbl)
	mean, _, _, _ := sim.TierLatency(tiers.Public)
	fmt.Fprintf(w, "after drain: every chunk public, observation→public latency %.1f years\n",
		mean.Hours()/24/365)
	return nil
}

// Figure3 characterizes the HTM subdivision: trixel counts per level, area
// uniformity, and the cost of the recursive point classification.
func Figure3(cfg Config, w io.Writer) error {
	section(w, "E4 / Figure 3", "hierarchical subdivision of spherical triangles")
	tbl := stats.NewTable("Depth", "Trixels", "Trixel size", "Area max/min", "Lookup ns/pt")
	rng := rand.New(rand.NewSource(cfg.Seed + 3))
	points := make([]sphere.Vec3, 4096)
	for i := range points {
		z := 2*rng.Float64() - 1
		phi := 2 * math.Pi * rng.Float64()
		r := math.Sqrt(1 - z*z)
		points[i] = sphere.Vec3{X: r * math.Cos(phi), Y: r * math.Sin(phi), Z: z}
	}
	for depth := 0; depth <= 10; depth += 2 {
		minA, maxA := math.Inf(1), 0.0
		if depth <= 6 {
			var walk func(tr htm.Triangle, d int)
			walk = func(tr htm.Triangle, d int) {
				if d == 0 {
					a := tr.Area()
					minA = math.Min(minA, a)
					maxA = math.Max(maxA, a)
					return
				}
				for _, c := range tr.Children() {
					walk(c, d-1)
				}
			}
			for f := htm.ID(8); f <= 15; f++ {
				walk(htm.FaceTriangle(f), depth)
			}
		} else {
			// Sample trixels at deep levels.
			for i := 0; i < 2000; i++ {
				id, err := htm.Lookup(points[i%len(points)], depth)
				if err != nil {
					return err
				}
				tri, err := htm.Vertices(id)
				if err != nil {
					return err
				}
				a := tri.Area()
				minA = math.Min(minA, a)
				maxA = math.Max(maxA, a)
			}
		}
		start := time.Now()
		for _, p := range points {
			if _, err := htm.Lookup(p, depth); err != nil {
				return err
			}
		}
		perPt := time.Since(start).Nanoseconds() / int64(len(points))
		meanArea := 4 * math.Pi / float64(htm.NumTrixels(depth))
		side := math.Sqrt(meanArea) / sphere.Deg
		sizeStr := fmt.Sprintf("%.2f deg", side)
		if side < 0.1 {
			sizeStr = fmt.Sprintf("%.1f arcmin", side*60)
		}
		tbl.AddRow(depth, htm.NumTrixels(depth), sizeStr,
			fmt.Sprintf("%.2f", maxA/minA), perPt)
	}
	fmt.Fprint(w, tbl)
	fmt.Fprintf(w, "8 base triangles; 4-way split per level; IDs invert to depth+position exactly\n")
	return nil
}

// Figure4 runs the paper's Figure 4 query — a latitude band in one
// spherical coordinate system intersected with a latitude constraint in
// another — and reports how the hierarchy classifies triangles per level.
func Figure4(cfg Config, w io.Writer) error {
	section(w, "E5 / Figure 4", "dual-coordinate-system latitude query against the mesh")
	reg := region.LatBand(sphere.Equatorial, 20, 40).
		Intersect(region.LatBand(sphere.Galactic, -15, 15))
	const depth = 8
	cov, err := region.Cover(reg, depth)
	if err != nil {
		return err
	}
	tbl := stats.NewTable("Level", "Inside (accepted)", "Partial (descend)", "Rejected (pruned)")
	for _, ls := range cov.Levels {
		tbl.AddRow(ls.Depth, ls.Inside, ls.Partial, ls.Rejected)
	}
	fmt.Fprint(w, tbl)

	lo, hi := cov.Area()
	// Monte Carlo reference area.
	rng := rand.New(rand.NewSource(cfg.Seed + 4))
	in := 0
	const samples = 200000
	for i := 0; i < samples; i++ {
		z := 2*rng.Float64() - 1
		phi := 2 * math.Pi * rng.Float64()
		r := math.Sqrt(1 - z*z)
		if reg.Contains(sphere.Vec3{X: r * math.Cos(phi), Y: r * math.Sin(phi), Z: z}) {
			in++
		}
	}
	trueArea := 4 * math.Pi * float64(in) / samples
	fmt.Fprintf(w, "coverage: %d full + %d partial trixels at depth %d; ranges: %d\n",
		len(cov.Full), len(cov.Partial), depth, cov.RangeSet().Len())
	fmt.Fprintf(w, "area bounds [%.4f, %.4f] sr; Monte Carlo reference %.4f sr; precision %.1f%%\n",
		lo, hi, trueArea, 100*trueArea/hi)
	fmt.Fprintf(w, "trixels examined: %d of %d at depth %d (pruning factor %.0f×)\n",
		totalExamined(cov), htm.NumTrixels(depth), depth,
		float64(htm.NumTrixels(depth))/float64(max(totalExamined(cov), 1)))
	return nil
}

func totalExamined(cov *region.Coverage) int {
	n := 0
	for _, ls := range cov.Levels {
		n += ls.Inside + ls.Partial + ls.Rejected
	}
	return n
}
