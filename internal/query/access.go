package query

import (
	"fmt"
	"math"

	"sdss/internal/catalog"
	"sdss/internal/colblk"
	"sdss/internal/htm"
	"sdss/internal/sphere"
)

// fieldRef resolves one AttrID to its fixed byte position inside an encoded
// record. stored is false for derived attributes (tag RA/Dec from the
// Cartesian triplet, spec position from the trixel center), which have no
// bytes of their own; slot is then the attribute's index in derive's
// result.
type fieldRef struct {
	field  catalog.Field
	stored bool
	slot   int
}

// The per-table AttrID → field tables, built once from the catalog layouts.
// Attribute order is dense, so a slice indexed by AttrID suffices.
var (
	photoFieldRefs = buildFieldRefs(TablePhoto, catalog.PhotoLayout)
	tagFieldRefs   = buildFieldRefs(TableTag, catalog.TagLayout)
	specFieldRefs  = buildFieldRefs(TableSpec, catalog.SpecLayout)
)

func buildFieldRefs(t Table, layout []catalog.Field) []fieldRef {
	byName := make(map[string]catalog.Field, len(layout))
	for _, f := range layout {
		byName[f.Name] = f
	}
	refs := make([]fieldRef, NumAttrs(t))
	for id := range refs {
		name := AttrName(t, AttrID(id))
		if f, ok := byName[name]; ok {
			refs[id] = fieldRef{field: f, stored: true}
			continue
		}
		// Only the known derived attributes may lack stored bytes; their
		// slots follow derive's result order.
		switch a := AttrID(id); {
		case t == TableTag && (a == TagRA || a == TagDec):
			refs[id] = fieldRef{slot: int(a - TagRA)}
		case t == TableSpec && (a == SpecCX || a == SpecCY || a == SpecCZ):
			refs[id] = fieldRef{slot: int(a - SpecCX)}
		default:
			panic(fmt.Sprintf("query: attribute %s.%s has no stored field", t, name))
		}
	}
	return refs
}

// derive computes one record's derived attributes from the stored
// attributes get reads: tag {RA, Dec} from the Cartesian triplet, spec
// {cx, cy, cz} from the trixel center (NaN when the htmid is not a valid
// trixel). RowReader, ColumnGetter and ZoneValues all derive through this
// one function, so they agree by construction.
func derive(t Table, get Getter) (d [3]float64) {
	switch t {
	case TableTag:
		d[0], d[1] = sphere.ToRADec(sphere.Vec3{X: get(TagCX), Y: get(TagCY), Z: get(TagCZ)})
	case TableSpec:
		if c, err := htm.Center(htm.ID(uint64(get(SpecHTMID)))); err == nil {
			d = [3]float64{c.X, c.Y, c.Z}
		} else {
			d = [3]float64{math.NaN(), math.NaN(), math.NaN()}
		}
	}
	return d
}

// accessor is the state both record accessors share: the table's field
// refs and the current record's derived attributes, computed on first use.
type accessor struct {
	table     Table
	refs      []fieldRef
	derived   [3]float64
	derivedOK bool
}

// derivedAt returns the current record's derived attribute at slot,
// deriving from get's stored attributes on first use.
func (a *accessor) derivedAt(slot int, get Getter) float64 {
	if !a.derivedOK {
		a.derived, a.derivedOK = derive(a.table, get), true
	}
	return a.derived[slot]
}

func fieldRefs(t Table) []fieldRef {
	switch t {
	case TablePhoto:
		return photoFieldRefs
	case TableTag:
		return tagFieldRefs
	case TableSpec:
		return specFieldRefs
	default:
		return nil
	}
}

// RecordSize returns the encoded record length of a table.
func RecordSize(t Table) int {
	switch t {
	case TablePhoto:
		return catalog.PhotoObjSize
	case TableTag:
		return catalog.TagSize
	case TableSpec:
		return catalog.SpecObjSize
	default:
		return 0
	}
}

// RowReader is the selective-decode accessor over raw encoded records: Get
// reads single attributes at fixed byte offsets, so a predicate or
// projection touching 3 of a PhotoObj's 38 attributes reads ~24 bytes
// instead of decoding the full 778-byte struct. Derived attributes (tag
// RA/Dec, spec position) are computed lazily and cached per record. The
// engine's scan reads column slabs through ColumnGetter instead; RowReader
// is the record-level reference the engine's tests compare against.
//
// A RowReader is stateful (it holds the current record and the derivation
// cache) and not safe for concurrent use.
type RowReader struct {
	accessor
	recSize int
	rec     []byte
}

// NewRowReader builds the offset-based accessor for a table.
func NewRowReader(t Table) (*RowReader, error) {
	refs := fieldRefs(t)
	if refs == nil {
		return nil, fmt.Errorf("query: no record layout for table %v", t)
	}
	return &RowReader{accessor: accessor{table: t, refs: refs}, recSize: RecordSize(t)}, nil
}

// Reset points the reader at a new encoded record.
func (r *RowReader) Reset(rec []byte) error {
	if len(rec) < r.recSize {
		return fmt.Errorf("query: %s record of %d bytes, need %d", r.table, len(rec), r.recSize)
	}
	r.rec = rec
	r.derivedOK = false
	return nil
}

// ObjID reads the record's object identifier through the catalog's
// sanctioned accessor (objid is the leading KindU64 field of every layout).
func (r *RowReader) ObjID() catalog.ObjID {
	return catalog.RecordObjID(r.rec)
}

// Get reads one attribute of the current record.
func (r *RowReader) Get(id AttrID) float64 {
	if id < 0 || int(id) >= len(r.refs) {
		return 0
	}
	ref := r.refs[id]
	if ref.stored {
		return ref.field.Read(r.rec)
	}
	return r.derivedAt(ref.slot, r.Get)
}

// ColumnGetter is the scan's accessor over a decoded column slab: Get reads
// one attribute of record i of the slab its colblk.Reader was last Reset
// to, a stored one from the reader's decoded column, a derived one through
// the same derivation as RowReader. Like RowReader it is stateful and not
// safe for concurrent use.
type ColumnGetter struct {
	accessor
	cols *colblk.Reader
	i    int
}

// NewColumnGetter builds the slab accessor for a table over a column
// reader.
func NewColumnGetter(t Table, cols *colblk.Reader) *ColumnGetter {
	return &ColumnGetter{accessor: accessor{table: t, refs: fieldRefs(t)}, cols: cols}
}

// Seek moves the getter to record i of the reader's current slab.
func (g *ColumnGetter) Seek(i int) {
	g.i, g.derivedOK = i, false
}

// Get reads one attribute of the current record.
func (g *ColumnGetter) Get(id AttrID) float64 {
	if id < 0 || int(id) >= len(g.refs) {
		return 0
	}
	ref := g.refs[id]
	if ref.stored {
		return g.cols.Value(int(id), g.i)
	}
	return g.derivedAt(ref.slot, g.Get)
}

// ZoneValues returns the zone-map extractor for a table: it fills out
// (length NumAttrs(t), indexed by AttrID) with every attribute of one
// encoded record, including the derived ones, so per-container min/max
// statistics cover the full schema. The returned function is stateless and
// safe for concurrent use — shard slices fold zones in parallel during a
// bulk load.
func ZoneValues(t Table) func(rec []byte, out []float64) {
	if fieldRefs(t) == nil {
		return nil
	}
	return func(rec []byte, out []float64) { zoneValues(t, rec, out) }
}

// zoneValues is ZoneValues' extractor. It is a plain function, not the
// closure's body, so its field reads stay inlined when a caller inlines
// ZoneValues.
func zoneValues(t Table, rec []byte, out []float64) {
	refs := fieldRefs(t)
	for id := range refs {
		if ref := &refs[id]; ref.stored {
			out[id] = ref.field.Read(rec)
		}
	}
	d := derive(t, func(id AttrID) float64 { return out[id] })
	for id := range refs {
		if ref := &refs[id]; !ref.stored {
			out[id] = d[ref.slot]
		}
	}
}
