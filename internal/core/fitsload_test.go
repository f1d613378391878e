package core

import (
	"context"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"

	"sdss/internal/load"
	"sdss/internal/skygen"
)

// buildFITSArchives runs the skygen → skyload path: nChunks generated
// chunks are written as multi-HDU FITS files, read back and ingested into
// an on-disk archive at dir/archive, which is sorted and flushed. The same
// chunks are loaded directly into an in-memory archive for comparison. It
// returns both archives and the number of spectra generated.
func buildFITSArchives(t *testing.T, dir string, seed int64, n, nChunks int) (disk, mem *Archive, wantSpec int64) {
	t.Helper()
	chunkDir := filepath.Join(dir, "chunks")
	if err := os.MkdirAll(chunkDir, 0o755); err != nil {
		t.Fatal(err)
	}
	p := skygen.Default(seed, n)
	disk, err := Create(filepath.Join(dir, "archive"), Options{})
	if err != nil {
		t.Fatal(err)
	}
	mem, err = Create("", Options{})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < nChunks; i++ {
		ch, err := skygen.GenerateChunk(p, i, nChunks)
		if err != nil {
			t.Fatal(err)
		}
		wantSpec += int64(len(ch.Spec))
		path := filepath.Join(chunkDir, "chunk.fits")
		if err := load.WriteChunkFile(path, ch, 256); err != nil {
			t.Fatal(err)
		}
		got, st, err := load.ReadChunkFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if len(st.Warnings) != 0 {
			t.Fatalf("chunk %d: warnings on a fresh multi-HDU file: %v", i, st.Warnings)
		}
		if _, err := disk.LoadChunk(got); err != nil {
			t.Fatal(err)
		}
		if _, err := mem.LoadChunk(ch); err != nil {
			t.Fatal(err)
		}
	}
	disk.Sort()
	if err := disk.Flush(); err != nil {
		t.Fatal(err)
	}
	mem.Sort()
	if wantSpec == 0 {
		t.Fatal("survey generated no spectra; a join parity check would be vacuous")
	}
	if got := disk.Stats().Spectra; got != wantSpec {
		t.Fatalf("disk archive holds %d spectra, want %d", got, wantSpec)
	}
	return disk, mem, wantSpec
}

// TestFITSChunkJoinParity exercises the full skygen → skyload → skyquery
// path: the flagship photo⋈spec join over the FITS-loaded disk archive must
// return the same rows, bit-identical, as an in-memory archive loaded from
// the same chunks directly. Before the SPECOBJ HDU existed this join
// silently returned zero rows from any disk-built archive.
func TestFITSChunkJoinParity(t *testing.T) {
	disk, mem, _ := buildFITSArchives(t, t.TempDir(), 11, 3000, 3)

	const q = "SELECT p.objid, s.z FROM photoobj p JOIN specobj s ON p.objid = s.objid ORDER BY p.objid"
	collect := func(a *Archive) []struct {
		id uint64
		z  float64
	} {
		t.Helper()
		rows, err := a.Query(context.Background(), q)
		if err != nil {
			t.Fatal(err)
		}
		res, err := rows.Collect()
		if err != nil {
			t.Fatal(err)
		}
		out := make([]struct {
			id uint64
			z  float64
		}, len(res))
		for i, r := range res {
			out[i].id = uint64(r.ObjID)
			out[i].z = r.Values[1]
		}
		return out
	}
	diskRows := collect(disk)
	memRows := collect(mem)
	if len(diskRows) == 0 {
		t.Fatal("photo⋈spec join on the FITS-loaded archive returned zero rows")
	}
	if len(diskRows) != len(memRows) {
		t.Fatalf("join rows: disk %d, memory %d", len(diskRows), len(memRows))
	}
	for i := range diskRows {
		if diskRows[i] != memRows[i] {
			t.Fatalf("join row %d differs: disk %+v, memory %+v", i, diskRows[i], memRows[i])
		}
	}
}

// canonicalRows runs a query and renders each result row as objid plus
// value bits, sorted, so unordered result sets compare exactly.
func canonicalRows(t *testing.T, a *Archive, q string) []string {
	t.Helper()
	rows, err := a.Query(context.Background(), q)
	if err != nil {
		t.Fatalf("%q: %v", q, err)
	}
	res, err := rows.Collect()
	if err != nil {
		t.Fatalf("%q: %v", q, err)
	}
	out := make([]string, len(res))
	for i, r := range res {
		var b strings.Builder
		fmt.Fprintf(&b, "%d", r.ObjID)
		for _, v := range r.Values {
			fmt.Fprintf(&b, " %x", math.Float64bits(v))
		}
		out[i] = b.String()
	}
	slices.Sort(out)
	return out
}

// TestFITSReopenedJoinGrid closes the disk round trip: an archive ingested
// from FITS chunks, flushed, and reopened from its directory must answer
// the join grid — the photo⋈spec equi-join, its aggregate, a residual
// predicate across both sides, and the spatial neighbor self-join — with
// exactly the rows of the in-memory archive built from the same chunks.
func TestFITSReopenedJoinGrid(t *testing.T) {
	dir := t.TempDir()
	_, mem, wantSpec := buildFITSArchives(t, dir, 17, 4000, 4)
	reopened, err := Create(filepath.Join(dir, "archive"), Options{})
	if err != nil {
		t.Fatal(err)
	}
	if got := reopened.Stats().Spectra; got != wantSpec {
		t.Fatalf("reopened archive holds %d spectra, want %d", got, wantSpec)
	}
	for _, q := range []string{
		"SELECT p.objid, s.redshift FROM photoobj p JOIN specobj s ON p.objid = s.objid WHERE p.r < 18",
		"SELECT COUNT(*) FROM photoobj p JOIN specobj s ON p.objid = s.objid WHERE p.r < 19",
		"SELECT p.objid FROM photoobj p JOIN specobj s ON p.objid = s.objid WHERE p.u - p.g > s.redshift",
		"SELECT a.objid, b.objid FROM NEIGHBORS(tag a, tag b, 0.5) WHERE a.objid < b.objid",
	} {
		got := canonicalRows(t, reopened, q)
		want := canonicalRows(t, mem, q)
		if len(want) == 0 {
			t.Errorf("%q: no rows in memory; the comparison is vacuous", q)
			continue
		}
		if !slices.Equal(got, want) {
			t.Errorf("%q: reopened archive returned %d rows, in-memory %d (or the rows differ)", q, len(got), len(want))
		}
	}
}
