package query

import "fmt"

// ColType is the wire type of a result column. Values travel as float64
// inside the engine; the type tells consumers (and the REST tier's
// formatters) how to render them.
type ColType string

// The column types.
const (
	// TypeFloat is a real-valued attribute (positions, magnitudes, ...).
	TypeFloat ColType = "float"
	// TypeInt is an integral attribute (run, camcol, class codes, flags).
	TypeInt ColType = "int"
	// TypeID is a 64-bit identifier (objid, htmid); rendered unsigned.
	TypeID ColType = "id"
)

// Column describes one named, typed column of a result set. Columns flow
// from the compiled projection to the wire so no consumer ever needs a
// hardcoded schema.
type Column struct {
	Name string  `json:"name"`
	Type ColType `json:"type"`
}

// String names the aggregate as written in the language.
func (a AggFunc) String() string {
	switch a {
	case AggCount:
		return "count"
	case AggMin:
		return "min"
	case AggMax:
		return "max"
	case AggAvg:
		return "avg"
	case AggSum:
		return "sum"
	default:
		return ""
	}
}

// Columns returns the select's result schema: the projected attributes in
// projection order, or the single synthetic aggregate column.
func (cs *CompiledSelect) Columns() []Column {
	switch {
	case cs.Agg == AggCount:
		return []Column{{Name: "count(*)", Type: TypeInt}}
	case cs.Agg != AggNone:
		return []Column{{
			Name: fmt.Sprintf("%s(%s)", cs.Agg, AttrName(cs.Table, cs.AggCol)),
			Type: TypeFloat,
		}}
	default:
		cols := make([]Column, len(cs.Cols))
		for i, id := range cs.Cols {
			cols[i] = Column{Name: AttrName(cs.Table, id), Type: AttrType(cs.Table, id)}
		}
		return cols
	}
}

// Columns returns the statement's result schema. Following SQL convention,
// a set operation takes its column names from the left branch.
func (p *Prepared) Columns() []Column {
	if p.Select != nil {
		return p.Select.Columns()
	}
	if p.Join != nil {
		return p.Join.Columns()
	}
	return p.Left.Columns()
}
