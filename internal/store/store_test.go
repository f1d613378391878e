package store

import (
	"encoding/binary"
	"os"
	"path/filepath"
	"testing"

	"sdss/internal/catalog"
	"sdss/internal/htm"
	"sdss/internal/region"
	"sdss/internal/skygen"
	"sdss/internal/sphere"
)

func photoOptions(dir string) Options {
	return Options{
		Dir:            dir,
		ContainerDepth: 5,
		RecordSize:     catalog.PhotoObjSize,
		KeyOffset:      8, // HTMID follows ObjID
	}
}

func photoRecords(t testing.TB, n int, seed int64) ([]Record, []catalog.PhotoObj) {
	t.Helper()
	photo, _, err := skygen.GenerateAll(skygen.Default(seed, n), 1)
	if err != nil {
		t.Fatal(err)
	}
	recs := make([]Record, len(photo))
	for i := range photo {
		recs[i] = Record{HTMID: photo[i].HTMID, Data: photo[i].AppendTo(nil)}
	}
	return recs, photo
}

func TestOpenValidation(t *testing.T) {
	if _, err := Open(Options{RecordSize: 0}); err == nil {
		t.Error("zero record size accepted")
	}
	if _, err := Open(Options{RecordSize: 16, KeyOffset: 12}); err == nil {
		t.Error("key offset past record end accepted")
	}
	if _, err := Open(Options{RecordSize: 16, ContainerDepth: htm.MaxDepth + 1}); err == nil {
		t.Error("excessive container depth accepted")
	}
}

func TestBulkLoadAndScan(t *testing.T) {
	s, err := Open(photoOptions(""))
	if err != nil {
		t.Fatal(err)
	}
	recs, photo := photoRecords(t, 2000, 1)
	if err := s.BulkLoad(recs); err != nil {
		t.Fatal(err)
	}
	if s.NumRecords() != int64(len(recs)) {
		t.Fatalf("NumRecords = %d, want %d", s.NumRecords(), len(recs))
	}
	if s.NumContainers() == 0 {
		t.Fatal("no containers created")
	}
	if s.Bytes() != int64(len(recs)*catalog.PhotoObjSize) {
		t.Fatalf("Bytes = %d", s.Bytes())
	}

	// Full scan must return every record exactly once.
	seen := make(map[catalog.ObjID]int)
	var p catalog.PhotoObj
	err = s.Scan(nil, false, func(rec []byte) error {
		if err := p.Decode(rec); err != nil {
			return err
		}
		seen[p.ObjID]++
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(seen) != len(photo) {
		t.Fatalf("scan saw %d distinct objects, want %d", len(seen), len(photo))
	}
	for id, n := range seen {
		if n != 1 {
			t.Fatalf("object %d seen %d times", id, n)
		}
	}
}

func TestScanWithCoverage(t *testing.T) {
	s, err := Open(photoOptions(""))
	if err != nil {
		t.Fatal(err)
	}
	recs, photo := photoRecords(t, 5000, 2)
	if err := s.BulkLoad(recs); err != nil {
		t.Fatal(err)
	}
	// Cone around the first object so the result is nonempty.
	center := photo[0].Pos()
	radius := 2 * sphere.Deg
	cov, err := region.Cover(region.Circle(center, radius), 10)
	if err != nil {
		t.Fatal(err)
	}
	want := make(map[catalog.ObjID]bool)
	for i := range photo {
		if sphere.Dist(center, photo[i].Pos()) <= radius {
			want[photo[i].ObjID] = true
		}
	}

	for _, fine := range []bool{false, true} {
		got := make(map[catalog.ObjID]bool)
		candidates := 0
		var p catalog.PhotoObj
		err := s.Scan(cov.RangeSet(), fine, func(rec []byte) error {
			if err := p.Decode(rec); err != nil {
				return err
			}
			candidates++
			if sphere.Dist(center, p.Pos()) <= radius {
				got[p.ObjID] = true
			}
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
		if len(got) != len(want) {
			t.Fatalf("fine=%v: found %d objects in cone, want %d", fine, len(got), len(want))
		}
		if candidates > len(recs) {
			t.Fatalf("fine=%v: scanned more candidates than records", fine)
		}
		if fine && candidates == len(recs) && len(want) < len(recs)/2 {
			t.Errorf("fine filter did not prune: %d candidates of %d", candidates, len(recs))
		}
	}
}

func TestFineFilterPrunesMoreThanCoarse(t *testing.T) {
	s, err := Open(photoOptions(""))
	if err != nil {
		t.Fatal(err)
	}
	recs, photo := photoRecords(t, 5000, 3)
	if err := s.BulkLoad(recs); err != nil {
		t.Fatal(err)
	}
	cov, err := region.Cover(region.Circle(photo[0].Pos(), 10*sphere.Arcmin), 10)
	if err != nil {
		t.Fatal(err)
	}
	count := func(fine bool) int {
		n := 0
		if err := s.Scan(cov.RangeSet(), fine, func([]byte) error { n++; return nil }); err != nil {
			t.Fatal(err)
		}
		return n
	}
	coarse, fine := count(false), count(true)
	if fine > coarse {
		t.Errorf("fine filter produced more candidates (%d) than coarse (%d)", fine, coarse)
	}
	if coarse > 0 && fine == coarse {
		t.Logf("note: fine filter gave no extra pruning (%d candidates)", fine)
	}
}

func TestTouchesOncePerContainerPerLoad(t *testing.T) {
	s, err := Open(photoOptions(""))
	if err != nil {
		t.Fatal(err)
	}
	recs, _ := photoRecords(t, 3000, 4)
	if err := s.BulkLoad(recs); err != nil {
		t.Fatal(err)
	}
	if got, want := s.Touches(), int64(s.NumContainers()); got != want {
		t.Fatalf("bulk load touched %d, want one per container = %d", got, want)
	}

	// Unclustered loading (one record at a time) must touch far more.
	s2, err := Open(photoOptions(""))
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range recs {
		if err := s2.BulkLoad([]Record{r}); err != nil {
			t.Fatal(err)
		}
	}
	if s2.Touches() != int64(len(recs)) {
		t.Fatalf("record-at-a-time load touched %d, want %d", s2.Touches(), len(recs))
	}
	s2.ResetTouches()
	if s2.Touches() != 0 {
		t.Error("ResetTouches failed")
	}
}

func TestBulkLoadValidation(t *testing.T) {
	s, err := Open(photoOptions(""))
	if err != nil {
		t.Fatal(err)
	}
	if err := s.BulkLoad([]Record{{HTMID: 0, Data: make([]byte, catalog.PhotoObjSize)}}); err == nil {
		t.Error("invalid HTM ID accepted")
	}
	id, _ := htm.LookupRADec(10, 10, 20)
	if err := s.BulkLoad([]Record{{HTMID: id, Data: make([]byte, 3)}}); err == nil {
		t.Error("short record accepted")
	}
}

func TestPersistenceRoundTrip(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(photoOptions(dir))
	if err != nil {
		t.Fatal(err)
	}
	recs, photo := photoRecords(t, 1500, 5)
	if err := s.BulkLoad(recs); err != nil {
		t.Fatal(err)
	}
	if err := s.Flush(); err != nil {
		t.Fatal(err)
	}

	// Reopen and verify contents.
	s2, err := Open(photoOptions(dir))
	if err != nil {
		t.Fatal(err)
	}
	if s2.NumRecords() != int64(len(photo)) {
		t.Fatalf("reloaded %d records, want %d", s2.NumRecords(), len(photo))
	}
	if s2.NumContainers() != s.NumContainers() {
		t.Fatalf("reloaded %d containers, want %d", s2.NumContainers(), s.NumContainers())
	}
	seen := make(map[catalog.ObjID]bool)
	var p catalog.PhotoObj
	if err := s2.Scan(nil, false, func(rec []byte) error {
		if err := p.Decode(rec); err != nil {
			return err
		}
		seen[p.ObjID] = true
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if len(seen) != len(photo) {
		t.Fatalf("reloaded scan saw %d objects, want %d", len(seen), len(photo))
	}
}

func TestCorruptContainerFiles(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(photoOptions(dir))
	if err != nil {
		t.Fatal(err)
	}
	recs, _ := photoRecords(t, 500, 6)
	if err := s.BulkLoad(recs); err != nil {
		t.Fatal(err)
	}
	if err := s.Flush(); err != nil {
		t.Fatal(err)
	}
	entries, err := os.ReadDir(dir)
	if err != nil || len(entries) == 0 {
		t.Fatalf("no container files: %v", err)
	}
	victim := filepath.Join(dir, entries[0].Name())

	// Truncated data.
	data, err := os.ReadFile(victim)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(victim, data[:len(data)-10], 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Open(photoOptions(dir)); err == nil {
		t.Error("truncated container accepted")
	}

	// Bad magic.
	bad := append([]byte("NOTMAGIC"), data[8:]...)
	if err := os.WriteFile(victim, bad, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Open(photoOptions(dir)); err == nil {
		t.Error("bad magic accepted")
	}

	// Wrong record size in header.
	wrong := append([]byte(nil), data...)
	binary.LittleEndian.PutUint32(wrong[20:], 99)
	if err := os.WriteFile(victim, wrong, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Open(photoOptions(dir)); err == nil {
		t.Error("wrong record size accepted")
	}
}

func TestSortedContainers(t *testing.T) {
	s, err := Open(photoOptions(""))
	if err != nil {
		t.Fatal(err)
	}
	recs, _ := photoRecords(t, 3000, 7)
	// Load in two batches to force unsorted appends, then sort.
	if err := s.BulkLoad(recs[:1500]); err != nil {
		t.Fatal(err)
	}
	if err := s.BulkLoad(recs[1500:]); err != nil {
		t.Fatal(err)
	}
	s.Sort()
	err = s.ScanContainers(func(id htm.ID, data []byte, count int) error {
		var prev htm.ID
		for i := 0; i < count; i++ {
			key := htm.ID(binary.LittleEndian.Uint64(data[i*catalog.PhotoObjSize+8:]))
			if key < prev {
				t.Fatalf("container %v not sorted at record %d", id, i)
			}
			// Every record must belong to its container.
			if key.AtDepth(s.ContainerDepth()) != id {
				t.Fatalf("record in wrong container: %v not under %v", key, id)
			}
			prev = key
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestScanCoverageTooDeep(t *testing.T) {
	s, err := Open(photoOptions(""))
	if err != nil {
		t.Fatal(err)
	}
	deep := htm.NewRangeSet(25)
	if err := s.Scan(deep, true, func([]byte) error { return nil }); err == nil {
		t.Error("coverage deeper than record keys accepted")
	}
}

// TestScanCoverageShallowerThanContainers: a coverage coarser than the
// containers admits every record under its trixels, with or without the
// fine filter.
func TestScanCoverageShallowerThanContainers(t *testing.T) {
	s, err := Open(photoOptions(""))
	if err != nil {
		t.Fatal(err)
	}
	recs, _ := photoRecords(t, 3000, 7)
	if err := s.BulkLoad(recs); err != nil {
		t.Fatal(err)
	}
	s.Sort()
	const depth = 2
	anc := recs[0].HTMID.AtDepth(depth)
	cov := htm.NewRangeSet(depth)
	cov.AddTrixel(anc)
	want := 0
	for _, r := range recs {
		if r.HTMID.AtDepth(depth) == anc {
			want++
		}
	}
	for _, fine := range []bool{false, true} {
		got := 0
		if err := s.Scan(cov, fine, func([]byte) error { got++; return nil }); err != nil {
			t.Fatal(err)
		}
		if got != want {
			t.Errorf("fineFilter=%v: scanned %d records under %v, want %d", fine, got, anc, want)
		}
	}
}

func BenchmarkBulkLoad(b *testing.B) {
	recs, _ := photoRecords(b, 20000, 1)
	var bytes int64
	for _, r := range recs {
		bytes += int64(len(r.Data))
	}
	b.SetBytes(bytes)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s, err := Open(photoOptions(""))
		if err != nil {
			b.Fatal(err)
		}
		if err := s.BulkLoad(recs); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkScanFull(b *testing.B) {
	s, err := Open(photoOptions(""))
	if err != nil {
		b.Fatal(err)
	}
	recs, _ := photoRecords(b, 20000, 1)
	if err := s.BulkLoad(recs); err != nil {
		b.Fatal(err)
	}
	b.SetBytes(s.Bytes())
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		n := 0
		if err := s.Scan(nil, false, func([]byte) error { n++; return nil }); err != nil {
			b.Fatal(err)
		}
	}
}
