package main

import (
	"fmt"
	"math"
	"math/rand"
	"net/url"
	"sort"
	"strconv"

	"sdss/internal/catalog"
	"sdss/internal/region"
	"sdss/internal/sphere"
)

// checkKind says how a response body is compared with the oracle.
type checkKind int

const (
	checkRowsCSV    checkKind = iota // data lines under the header
	checkRowsNDJSON                  // one line per row
	checkRowsJSON                    // the document's row_count
	checkValueCSV                    // an aggregate: the single value under the header
	checkTopCSV                      // row count plus the first row's last field
)

// request is one pre-generated operation with its expected answer. The
// server sees only Path.
type request struct {
	Tmpl   int    // index into templates[workload]
	Path   string // GET target; for Job requests filled in once the job exists
	Query  string // the statement the handler runs (the job's statement for Job requests)
	Format string
	Check  checkKind
	Rows   int     // expected result rows
	Value  float64 // expected aggregate, or first ORDER BY key for checkTopCSV
	Tol    float64 // relative tolerance on Value; 0 means exact
	Job    bool    // GET /v1/jobs/{id}/rows of the finished job for Query
	// Inputs are, for a join, the scans that feed it as statements of their
	// own; the traced run times them apart from the join.
	Inputs []string
}

// oracle holds the generated objects in the flat form the brute-force
// checks walk. Magnitudes are widened exactly as the engine widens the
// stored float32s, so comparisons agree bit for bit.
type oracle struct {
	pos []sphere.Vec3
	mag [][catalog.NumBands]float64
	ra  []float64
	dec []float64
	// stars indexes the stellar objects. Search positions are drawn from
	// them: stars thin out smoothly away from the galactic plane, while a
	// draw over all objects lands in a rich galaxy cluster often enough that
	// the rows a request list returns swing with the seed.
	stars []int
	spec  []float64 // redshifts of spectra whose object is in the photo table
}

func newOracle(sv *survey) *oracle {
	o := &oracle{
		pos: make([]sphere.Vec3, len(sv.photo)),
		mag: make([][catalog.NumBands]float64, len(sv.photo)),
		ra:  make([]float64, len(sv.photo)),
		dec: make([]float64, len(sv.photo)),
	}
	ids := make(map[catalog.ObjID]struct{}, len(sv.photo))
	for i, p := range sv.photo {
		o.pos[i] = p.Pos()
		for b := range p.Mag {
			o.mag[i][b] = float64(p.Mag[b])
		}
		o.ra[i], o.dec[i] = p.RA, p.Dec
		if p.Class == catalog.ClassStar {
			o.stars = append(o.stars, i)
		}
		ids[p.ObjID] = struct{}{}
	}
	for _, s := range sv.spec {
		if _, ok := ids[s.ObjID]; ok {
			o.spec = append(o.spec, float64(s.Redshift))
		}
	}
	return o
}

// count returns how many objects satisfy pred.
func (o *oracle) count(pred func(i int) bool) int {
	n := 0
	for i := range o.pos {
		if pred(i) {
			n++
		}
	}
	return n
}

// minR returns the smallest r among objects satisfying pred and how many do.
func (o *oracle) minR(pred func(i int) bool) (float64, int) {
	best, n := math.Inf(1), 0
	for i := range o.pos {
		if pred(i) {
			n++
			if r := o.mag[i][catalog.R]; r < best {
				best = r
			}
		}
	}
	return best, n
}

// neighborPairs counts unordered object pairs within radiusArcmin by a
// sweep along z: two unit vectors θ apart differ in z by at most θ.
func (o *oracle) neighborPairs(radiusArcmin float64) int {
	theta := radiusArcmin * sphere.Arcmin
	cosMax := math.Cos(theta)
	idx := make([]int, len(o.pos))
	for i := range idx {
		idx[i] = i
	}
	sort.Slice(idx, func(a, b int) bool { return o.pos[idx[a]].Z < o.pos[idx[b]].Z })
	pairs := 0
	for a, i := range idx {
		for _, j := range idx[a+1:] {
			if o.pos[j].Z-o.pos[i].Z > theta+1e-12 {
				break
			}
			if sphere.CosDist(o.pos[i], o.pos[j]) >= cosMax {
				pairs++
			}
		}
	}
	return pairs
}

func roundTo(v float64, decimals int) float64 {
	p := math.Pow(10, float64(decimals))
	return math.Round(v*p) / p
}

func num(v float64) string { return strconv.FormatFloat(v, 'g', -1, 64) }

func queryPath(q, format string) string {
	return "/v1/query?format=" + format + "&q=" + url.QueryEscape(q)
}

// genRequests builds the workload's request list from the seed. Parameters
// that set an operation's cost (radii, thresholds) come from fixed strata so
// every seed draws the same mix; the seed picks positions, jitter and order.
func genRequests(workload string, seed int64, o *oracle) []request {
	rng := rand.New(rand.NewSource(seed*7919 + 17))
	switch workload {
	case wInteractive:
		return genInteractive(rng, o)
	case wSweep:
		return genSweep(rng, o)
	case wExport:
		return genExport(rng, o)
	case wMining:
		return genMining(rng, o)
	}
	return nil
}

func genInteractive(rng *rand.Rand, o *oracle) []request {
	const rounds = 100
	coneRadii := []float64{1, 2, 5, 10, 20, 30}
	rectMag := []float64{19, 20, 21, 22}
	colorCut := []float64{0.2, 0.4, 0.6, 0.8}
	center := func() (ra, dec float64) {
		k := o.stars[rng.Intn(len(o.stars))]
		return roundTo(o.ra[k], 4), roundTo(o.dec[k], 4)
	}
	var reqs []request
	for round := 0; round < rounds; round++ {
		// cone: /v1/cone around an object's position.
		ra, dec := center()
		radius := coneRadii[round%len(coneRadii)]
		reg := region.CircleRADec(ra, dec, radius)
		reqs = append(reqs, request{
			Tmpl:   0,
			Path:   fmt.Sprintf("/v1/cone?ra=%s&dec=%s&radius=%s&format=json", num(ra), num(dec), num(radius)),
			Query:  fmt.Sprintf("SELECT * FROM tag WHERE CIRCLE(%g, %g, %g)", ra, dec, radius),
			Format: "json", Check: checkRowsJSON,
			Rows: o.count(func(i int) bool { return reg.Contains(o.pos[i]) }),
		})

		// rect: a 1°×1° box with a magnitude cut on the full table.
		ra, dec = center()
		ra0 := math.Min(math.Max(roundTo(ra, 2)-0.5, 0), 359)
		dec0 := math.Min(math.Max(roundTo(dec, 2)-0.5, -89), 88)
		m := rectMag[round%len(rectMag)]
		box := region.RectRADec(ra0, ra0+1, dec0, dec0+1)
		q := fmt.Sprintf("SELECT objid, ra, dec, r FROM photoobj WHERE RECT(%s, %s, %s, %s) AND r < %s",
			num(ra0), num(ra0+1), num(dec0), num(dec0+1), num(m))
		reqs = append(reqs, request{
			Tmpl: 1, Path: queryPath(q, "json"), Query: q, Format: "json", Check: checkRowsJSON,
			Rows: o.count(func(i int) bool { return box.Contains(o.pos[i]) && o.mag[i][catalog.R] < m }),
		})

		// bright: a bright-end cut, first 100 rows.
		m = roundTo(16+0.5*float64(round%5)+0.1*rng.Float64(), 2)
		q = fmt.Sprintf("SELECT objid, g, r FROM tag WHERE r < %s LIMIT 100", num(m))
		reqs = append(reqs, request{
			Tmpl: 2, Path: queryPath(q, "json"), Query: q, Format: "json", Check: checkRowsJSON,
			Rows: min(100, o.count(func(i int) bool { return o.mag[i][catalog.R] < m })),
		})

		// circle_top: the 50 brightest inside a 1° circle, as CSV.
		ra, dec = center()
		circ := region.CircleRADec(ra, dec, 60)
		q = fmt.Sprintf("SELECT objid, ra, dec, r FROM tag WHERE CIRCLE(%s, %s, 60) ORDER BY r LIMIT 50", num(ra), num(dec))
		best, n := o.minR(func(i int) bool { return circ.Contains(o.pos[i]) })
		reqs = append(reqs, request{
			Tmpl: 3, Path: queryPath(q, "csv"), Query: q, Format: "csv", Check: checkTopCSV,
			Rows: min(50, n), Value: best,
		})

		// circle_count: COUNT(*) in a 2° circle with a colour residual.
		ra, dec = center()
		circ2 := region.CircleRADec(ra, dec, 120)
		x := colorCut[round%len(colorCut)]
		q = fmt.Sprintf("SELECT COUNT(*) FROM tag WHERE CIRCLE(%s, %s, 120) AND g - r > %s", num(ra), num(dec), num(x))
		reqs = append(reqs, request{
			Tmpl: 4, Path: queryPath(q, "csv"), Query: q, Format: "csv", Check: checkValueCSV,
			Value: float64(o.count(func(i int) bool {
				return circ2.Contains(o.pos[i]) && o.mag[i][catalog.G]-o.mag[i][catalog.R] > x
			})),
		})
	}
	return reqs
}

func genSweep(rng *rand.Rand, o *oracle) []request {
	const rounds, strata = 16, 8
	var sumR float64
	for i := range o.mag {
		sumR += o.mag[i][catalog.R]
	}
	minAll, nAll := o.minR(func(int) bool { return true })
	countColor := func(x float64) request {
		q := fmt.Sprintf("SELECT COUNT(*) FROM photoobj WHERE g - r > %s AND r < 21", num(x))
		return request{
			Tmpl: 0, Path: queryPath(q, "csv"), Query: q, Format: "csv", Check: checkValueCSV,
			Value: float64(o.count(func(i int) bool {
				return o.mag[i][catalog.G]-o.mag[i][catalog.R] > x && o.mag[i][catalog.R] < 21
			})),
		}
	}
	q := "SELECT AVG(r) FROM tag"
	avgR := request{
		Tmpl: 1, Path: queryPath(q, "csv"), Query: q, Format: "csv", Check: checkValueCSV,
		Value: sumR / float64(len(o.mag)), Tol: 1e-9,
	}
	var reqs []request
	for round := 0; round < rounds; round++ {
		// AVG(r) runs twice a round. Of five operations a round the two
		// cheaper classes are the fastest 40 %, so the median of the mix
		// falls inside the AVG class — one statement, one cost — and the
		// tail inside top_r; with four equal classes the median sat on the
		// step between two classes and jumped from run to run.
		s := float64(round % strata)
		reqs = append(reqs, countColor(roundTo(0.2+0.1*s+0.05*rng.Float64(), 3)))
		reqs = append(reqs, avgR)

		y := roundTo(19.5+0.3*s+0.1*rng.Float64(), 3)
		q := fmt.Sprintf("SELECT MAX(u) FROM tag WHERE i < %s", num(y))
		maxU := math.Inf(-1)
		for i := range o.mag {
			if o.mag[i][catalog.I] < y && o.mag[i][catalog.U] > maxU {
				maxU = o.mag[i][catalog.U]
			}
		}
		reqs = append(reqs, request{
			Tmpl: 2, Path: queryPath(q, "csv"), Query: q, Format: "csv", Check: checkValueCSV, Value: maxU,
		})
		reqs = append(reqs, avgR)

		q = "SELECT objid, r FROM tag ORDER BY r LIMIT 100"
		reqs = append(reqs, request{
			Tmpl: 3, Path: queryPath(q, "csv"), Query: q, Format: "csv", Check: checkTopCSV,
			Rows: min(100, nAll), Value: minAll,
		})
	}
	return reqs
}

func genExport(rng *rand.Rand, o *oracle) []request {
	formats := []struct {
		name  string
		check checkKind
	}{{"csv", checkRowsCSV}, {"ndjson", checkRowsNDJSON}, {"json", checkRowsJSON}}
	// Ten thresholds spread over r < 21..22 give each format a near-continuum
	// of result sizes, so the median of the mix moves smoothly.
	const cuts = 10
	var reqs []request
	for k := 0; k < cuts; k++ {
		t := roundTo(21+(float64(k)+rng.Float64())/cuts, 3)
		q := fmt.Sprintf("SELECT objid,ra,dec,u,g,r,i,z FROM tag WHERE r < %s", num(t))
		rows := o.count(func(i int) bool { return o.mag[i][catalog.R] < t })
		for f, fm := range formats {
			reqs = append(reqs, request{
				Tmpl: f, Path: queryPath(q, fm.name), Query: q, Format: fm.name, Check: fm.check, Rows: rows,
			})
		}
		reqs = append(reqs, request{Tmpl: 3, Query: q, Format: "csv", Check: checkRowsCSV, Rows: rows, Job: true})
	}
	rng.Shuffle(len(reqs), func(i, j int) { reqs[i], reqs[j] = reqs[j], reqs[i] })
	return reqs
}

func genMining(rng *rand.Rand, o *oracle) []request {
	radii := []float64{0.25, 0.5, 0.75}
	zCuts := []float64{0.05, 0.1, 0.2}
	neighbors := func(radius float64) request {
		q := fmt.Sprintf("SELECT a.objid, b.objid FROM NEIGHBORS(tag a, tag b, %s) WHERE a.objid < b.objid", num(radius))
		return request{
			Tmpl: 0, Path: queryPath(q, "csv"), Query: q, Format: "csv", Check: checkRowsCSV,
			Rows:   o.neighborPairs(radius),
			Inputs: []string{"SELECT objid, cx, cy, cz FROM tag", "SELECT objid, cx, cy, cz FROM tag"},
		}
	}
	var reqs []request
	for round := 0; round < 6; round++ {
		// Two self-joins to one equi-join: the median of the mix lies inside
		// the neighbors class, not on the step down to the 10× cheaper join.
		reqs = append(reqs, neighbors(roundTo(radii[round%3]+0.02*(rng.Float64()-0.5), 3)))
		reqs = append(reqs, neighbors(roundTo(radii[(round+1)%3]+0.02*(rng.Float64()-0.5), 3)))

		z := roundTo(zCuts[round%3]+0.02*(rng.Float64()-0.5), 3)
		q := fmt.Sprintf("SELECT p.objid, s.z FROM photoobj p JOIN specobj s ON p.objid = s.objid WHERE s.z > %s", num(z))
		n := 0
		for _, sz := range o.spec {
			if sz > z {
				n++
			}
		}
		reqs = append(reqs, request{
			Tmpl: 1, Path: queryPath(q, "csv"), Query: q, Format: "csv", Check: checkRowsCSV, Rows: n,
			Inputs: []string{"SELECT objid FROM photoobj", fmt.Sprintf("SELECT objid, z FROM specobj WHERE z > %s", num(z))},
		})
	}
	return reqs
}
