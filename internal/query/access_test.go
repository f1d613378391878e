package query

import (
	"math"
	"math/rand"
	"testing"

	"sdss/internal/catalog"
	"sdss/internal/colblk"
	"sdss/internal/htm"
	"sdss/internal/sphere"
)

// The reference decoders below read every attribute from the catalog
// struct the record codecs produce. RowReader reads the same attributes at
// fixed byte offsets; the two must agree bit for bit on every AttrID.
// ok is false for an AttrID the reference does not know, so a schema
// attribute added without a mapping fails the test instead of reading 0.

func photoAttr(p *catalog.PhotoObj, id AttrID) (v float64, ok bool) {
	switch id {
	case PhotoObjID:
		return float64(p.ObjID), true
	case PhotoHTMID:
		return float64(p.HTMID), true
	case PhotoRA:
		return p.RA, true
	case PhotoDec:
		return p.Dec, true
	case PhotoCX:
		return p.X, true
	case PhotoCY:
		return p.Y, true
	case PhotoCZ:
		return p.Z, true
	case PhotoU, PhotoG, PhotoR, PhotoI, PhotoZ:
		return float64(p.Mag[id-PhotoU]), true
	case PhotoErrU, PhotoErrG, PhotoErrR, PhotoErrI, PhotoErrZ:
		return float64(p.MagErr[id-PhotoErrU]), true
	case PhotoExtU, PhotoExtG, PhotoExtR, PhotoExtI, PhotoExtZ:
		return float64(p.Extinction[id-PhotoExtU]), true
	case PhotoPetroRad:
		return float64(p.PetroRad), true
	case PhotoPetroR50:
		return float64(p.PetroR50), true
	case PhotoSurfBright:
		return float64(p.SurfBright), true
	case PhotoSkyBright:
		return float64(p.SkyBright), true
	case PhotoAirmass:
		return float64(p.Airmass), true
	case PhotoRowC:
		return float64(p.RowC), true
	case PhotoColC:
		return float64(p.ColC), true
	case PhotoPSFWidth:
		return float64(p.PSFWidth), true
	case PhotoMuRA:
		return float64(p.MuRA), true
	case PhotoMuDec:
		return float64(p.MuDec), true
	case PhotoMJD:
		return p.MJD, true
	case PhotoRun:
		return float64(p.Run), true
	case PhotoCamcol:
		return float64(p.Camcol), true
	case PhotoField:
		return float64(p.Field), true
	case PhotoClass:
		return float64(p.Class), true
	case PhotoFlags:
		return float64(p.Flags), true
	}
	return 0, false
}

func tagAttr(t *catalog.Tag, id AttrID) (v float64, ok bool) {
	switch id {
	case TagObjID:
		return float64(t.ObjID), true
	case TagHTMID:
		return float64(t.HTMID), true
	case TagCX:
		return t.X, true
	case TagCY:
		return t.Y, true
	case TagCZ:
		return t.Z, true
	case TagRA, TagDec:
		ra, dec := sphere.ToRADec(t.Pos())
		if id == TagRA {
			return ra, true
		}
		return dec, true
	case TagU, TagG, TagR, TagI, TagZ:
		return float64(t.Mag[id-TagU]), true
	case TagSize:
		return float64(t.Size), true
	case TagClass:
		return float64(t.Class), true
	}
	return 0, false
}

func specAttr(s *catalog.SpecObj, id AttrID) (v float64, ok bool) {
	switch id {
	case SpecObjID:
		return float64(s.ObjID), true
	case SpecHTMID:
		return float64(s.HTMID), true
	case SpecRedshift:
		return float64(s.Redshift), true
	case SpecRedshiftErr:
		return float64(s.RedshiftErr), true
	case SpecClass:
		return float64(s.Class), true
	case SpecFiberID:
		return float64(s.FiberID), true
	case SpecPlate:
		return float64(s.Plate), true
	case SpecSN:
		return float64(s.SN), true
	case SpecCX, SpecCY, SpecCZ:
		// The position is the trixel center; an invalid trixel has none.
		c, err := htm.Center(s.HTMID)
		if err != nil {
			return math.NaN(), true
		}
		return [3]float64{c.X, c.Y, c.Z}[id-SpecCX], true
	}
	return 0, false
}

// accessFixture is a seeded set of records with a distinct value in every
// field, plus the edge cases RowReader must preserve: NaN magnitudes and
// coordinates, object ids above 2⁵³ (where float64 rounds), and a spectrum
// whose trixel id is invalid.
type accessFixture struct {
	photo []catalog.PhotoObj
	tag   []catalog.Tag
	spec  []catalog.SpecObj
}

func newAccessFixture(t *testing.T) accessFixture {
	t.Helper()
	rng := rand.New(rand.NewSource(53))
	f32 := func() float32 { return rng.Float32()*40 - 10 }
	nan32 := float32(math.NaN())
	var fx accessFixture
	for i := 0; i < 64; i++ {
		var p catalog.PhotoObj
		if err := p.SetPos(rng.Float64()*360, rng.Float64()*180-90); err != nil {
			t.Fatal(err)
		}
		p.ObjID = catalog.ObjID(rng.Uint64() >> uint(i%12))
		p.Run, p.Camcol, p.Field = uint16(rng.Intn(1<<16)), uint8(1+rng.Intn(6)), uint16(rng.Intn(1<<16))
		p.MJD = 51000 + rng.Float64()*4000
		for b := 0; b < catalog.NumBands; b++ {
			p.Mag[b], p.MagErr[b], p.Extinction[b] = f32(), f32(), f32()
		}
		p.PetroRad, p.PetroR50, p.SurfBright, p.SkyBright = f32(), f32(), f32(), f32()
		p.Airmass, p.RowC, p.ColC, p.PSFWidth = f32(), f32(), f32(), f32()
		p.MuRA, p.MuDec = f32(), f32()
		p.Class = catalog.Class(rng.Intn(256))
		p.Flags = rng.Uint64()
		switch i % 8 {
		case 1:
			p.Mag[catalog.R], p.MagErr[catalog.G], p.PetroRad = nan32, nan32, nan32
		case 2:
			p.MJD, p.RA = math.NaN(), math.NaN()
		case 3:
			p.X = math.NaN() // tag ra/dec derive from a NaN triplet
		}
		fx.photo = append(fx.photo, p)
		fx.tag = append(fx.tag, catalog.MakeTag(&p))
		s := catalog.SpecObj{
			ObjID: p.ObjID, HTMID: p.HTMID,
			Redshift: f32(), RedshiftErr: f32(), SN: f32(),
			Class:   catalog.Class(rng.Intn(256)),
			FiberID: uint16(1 + rng.Intn(640)), Plate: uint16(rng.Intn(1 << 16)),
		}
		switch i % 8 {
		case 4:
			s.Redshift, s.SN = nan32, nan32
		case 5:
			s.HTMID = 0 // not a trixel: the derived position is NaN
		}
		fx.spec = append(fx.spec, s)
	}
	return fx
}

// checkRowReader encodes each struct, decodes it back through the struct
// codec, and compares every AttrID of the decoded struct against
// RowReader.Get over the same bytes.
func checkRowReader[T any](t *testing.T, table Table, objs []T,
	encode func(*T) []byte, decode func(*T, []byte) error,
	objID func(*T) catalog.ObjID, ref func(*T, AttrID) (float64, bool)) {
	t.Helper()
	rr, err := NewRowReader(table)
	if err != nil {
		t.Fatal(err)
	}
	for i := range objs {
		rec := encode(&objs[i])
		var dec T
		if err := decode(&dec, rec); err != nil {
			t.Fatal(err)
		}
		if err := rr.Reset(rec); err != nil {
			t.Fatal(err)
		}
		if got, want := rr.ObjID(), objID(&dec); got != want {
			t.Errorf("%s row %d: ObjID %d, struct %d", table, i, got, want)
		}
		for id := AttrID(0); int(id) < NumAttrs(table); id++ {
			want, ok := ref(&dec, id)
			if !ok {
				t.Fatalf("%s.%s: no struct field in the reference decoder", table, AttrName(table, id))
			}
			if got := rr.Get(id); math.Float64bits(got) != math.Float64bits(want) {
				t.Errorf("%s row %d %s: RowReader %v (%#x), struct %v (%#x)", table, i,
					AttrName(table, id), got, math.Float64bits(got), want, math.Float64bits(want))
			}
		}
	}
}

// TestRowReaderMatchesStructCodecs is the oracle for the selective decode
// path: for every attribute of photo, tag and spec, RowReader.Get over an
// encoded record is bit-identical to the field the full struct decode
// yields, including NaN fields, 64-bit object ids and the derived tag
// ra/dec and spec position.
func TestRowReaderMatchesStructCodecs(t *testing.T) {
	fx := newAccessFixture(t)
	checkRowReader(t, TablePhoto, fx.photo,
		func(p *catalog.PhotoObj) []byte { return p.AppendTo(nil) },
		(*catalog.PhotoObj).Decode,
		func(p *catalog.PhotoObj) catalog.ObjID { return p.ObjID }, photoAttr)
	checkRowReader(t, TableTag, fx.tag,
		func(p *catalog.Tag) []byte { return p.AppendTo(nil) },
		(*catalog.Tag).Decode,
		func(p *catalog.Tag) catalog.ObjID { return p.ObjID }, tagAttr)
	checkRowReader(t, TableSpec, fx.spec,
		func(p *catalog.SpecObj) []byte { return p.AppendTo(nil) },
		(*catalog.SpecObj).Decode,
		func(p *catalog.SpecObj) catalog.ObjID { return p.ObjID }, specAttr)

	// The fixture must actually exercise the edge cases it claims to.
	var big, nanRA bool
	for i := range fx.photo {
		big = big || fx.photo[i].ObjID > 1<<53
		nanRA = nanRA || math.IsNaN(fx.photo[i].RA)
	}
	if !big || !nanRA {
		t.Fatalf("fixture lacks edge cases: objid>2^53 %v, NaN ra %v", big, nanRA)
	}
}

// TestColumnGetterMatchesRowReader is the oracle for the scan's accessor:
// over slabs encoded from the fixture's records, both as the encoder
// chooses and forced raw, ColumnGetter.Get is bit-identical to
// RowReader.Get on every attribute of every record of photo, tag and spec
// — NaN fields, object ids above 2⁵³ and the derived attributes included.
func TestColumnGetterMatchesRowReader(t *testing.T) {
	fx := newAccessFixture(t)
	// A second spectrum off the trixel grid, nonzero this time (below the
	// root trixels), so its derived position is NaN too.
	const badTrixel = 5
	if _, err := htm.Center(badTrixel); err == nil {
		t.Fatalf("htmid %d is a valid trixel", badTrixel)
	}
	fx.spec = append(fx.spec, catalog.SpecObj{ObjID: 1<<60 + 1, HTMID: badTrixel, Redshift: 0.25})

	var photo, tag, spec []byte
	for i := range fx.photo {
		photo = fx.photo[i].AppendTo(photo)
		tag = fx.tag[i].AppendTo(tag)
	}
	for i := range fx.spec {
		spec = fx.spec[i].AppendTo(spec)
	}
	checkColumnGetter(t, TablePhoto, photo)
	checkColumnGetter(t, TableTag, tag)
	checkColumnGetter(t, TableSpec, spec)
}

// checkColumnGetter compares ColumnGetter over data's slab against
// RowReader over data's records, attribute by attribute.
func checkColumnGetter(t *testing.T, table Table, data []byte) {
	t.Helper()
	rr, err := NewRowReader(table)
	if err != nil {
		t.Fatal(err)
	}
	size := RecordSize(table)
	n := len(data) / size
	for _, raw := range []bool{false, true} {
		cols := colblk.NewReader()
		cols.Reset(ColumnSpecs(table).Encode(data, n, size, raw))
		g := NewColumnGetter(table, cols)
		for i := 0; i < n; i++ {
			g.Seek(i)
			if err := rr.Reset(data[i*size : (i+1)*size]); err != nil {
				t.Fatal(err)
			}
			for id := AttrID(0); int(id) < NumAttrs(table); id++ {
				got, want := g.Get(id), rr.Get(id)
				if math.Float64bits(got) != math.Float64bits(want) {
					t.Errorf("%s raw=%v row %d %s: ColumnGetter %v (%#x), RowReader %v (%#x)",
						table, raw, i, AttrName(table, id),
						got, math.Float64bits(got), want, math.Float64bits(want))
				}
			}
		}
	}
}
