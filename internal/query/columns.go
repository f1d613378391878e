package query

import (
	"fmt"
	"math"

	"sdss/internal/catalog"
	"sdss/internal/colblk"
)

// The per-table column-block specs: one colblk column slot per AttrID, so a
// slab column index IS the attribute ID. Derived attributes (tag RA/Dec,
// spec position) hold KNone placeholders — they have no stored bytes, so
// kernels leave predicates on them to the row predicate.
//
// Predictors encode the functional dependencies the catalog bakes into
// records: the photo Cartesian triplet is exactly sphere.FromRADec(ra, dec)
// (catalog.SetPos computes it that way), and the per-band error/extinction
// columns track the u band closely. A predictor only names a hypothesis;
// the encoder measures residuals per container and keeps whichever encoding
// is smallest, so a miss costs nothing at decode time.
var (
	photoColumns = buildColumns(TablePhoto, func(c *colblk.Column, id AttrID) {
		switch id {
		case PhotoCX, PhotoCY, PhotoCZ:
			c.Pred = colblk.PredVec
			c.Arg = [2]int{int(PhotoRA), int(PhotoDec)}
			c.Aux = uint8(id - PhotoCX)
		case PhotoErrG, PhotoErrR, PhotoErrI, PhotoErrZ:
			c.Pred = colblk.PredCol
			c.Arg = [2]int{int(PhotoErrU)}
		case PhotoExtG, PhotoExtR, PhotoExtI, PhotoExtZ:
			c.Pred = colblk.PredCol
			c.Arg = [2]int{int(PhotoExtU)}
		}
	})
	tagColumns  = buildColumns(TableTag, nil)
	specColumns = buildColumns(TableSpec, nil)
)

// ColumnSpecs returns the table's column-block spec, aligned with its
// attribute IDs.
func ColumnSpecs(t Table) *colblk.Spec {
	switch t {
	case TablePhoto:
		return photoColumns
	case TableTag:
		return tagColumns
	case TableSpec:
		return specColumns
	default:
		return nil
	}
}

func buildColumns(t Table, annotate func(*colblk.Column, AttrID)) *colblk.Spec {
	refs := fieldRefs(t)
	cols := make([]colblk.Column, len(refs))
	for id, ref := range refs {
		c := colblk.Column{Name: AttrName(t, AttrID(id))}
		if ref.stored {
			c.Offset = ref.field.Offset
			c.Kind = blockKind(ref.field.Kind)
		}
		if annotate != nil {
			annotate(&c, AttrID(id))
		}
		cols[id] = c
	}
	return colblk.MustSpec(cols)
}

// blockKind maps the catalog's field kinds onto the codec's.
func blockKind(k catalog.FieldKind) colblk.Kind {
	switch k {
	case catalog.KindU8:
		return colblk.KU8
	case catalog.KindU16:
		return colblk.KU16
	case catalog.KindU64:
		return colblk.KU64
	case catalog.KindF32:
		return colblk.KF32
	case catalog.KindF64:
		return colblk.KF64
	default:
		panic(fmt.Sprintf("query: unmapped field kind %d", k))
	}
}

// KernelExact reports whether ExtractBounds captures the predicate exactly
// for kernel evaluation: a (possibly NOT-wrapped) AND-tree whose every leaf
// is an attr-versus-constant comparison on a stored attribute. For such
// predicates the per-attribute key ranges ARE the predicate — a record
// survives the kernel's range tests if and only if the row-path Pred would
// accept it — so the scan can skip per-row evaluation entirely. Anything
// else (OR hulls, arithmetic over attributes, spatial tests, flag masks,
// derived attributes) leaves the kernel a conservative prefilter with the
// row predicate re-checking survivors.
func KernelExact(t Table, e Expr) bool {
	if e == nil {
		return true
	}
	return kernelExact(t, e, false)
}

func kernelExact(t Table, e Expr, neg bool) bool {
	switch n := e.(type) {
	case *LogicalOp:
		op := n.Op
		if neg {
			if op == "and" {
				op = "or"
			} else {
				op = "and"
			}
		}
		if op != "and" {
			return false
		}
		return kernelExact(t, n.Left, neg) && kernelExact(t, n.Right, neg)
	case *NotOp:
		return kernelExact(t, n.Child, !neg)
	case *BinaryOp:
		ident, lit, op, ok := identVsConst(n)
		if !ok || ident.Attr == AttrInvalid || int(ident.Attr) >= NumAttrs(t) {
			return false
		}
		if neg {
			op = negateOp(op)
		}
		switch op {
		case "<", "<=", ">", ">=", "=":
		default:
			// "!=" (a punctured line) is not one key range; arithmetic
			// operators are not comparisons at all.
			return false
		}
		if math.IsNaN(lit) {
			// comparisonBounds drops NaN-literal comparisons, so the bounds
			// would not represent this leaf.
			return false
		}
		return fieldRefs(t)[ident.Attr].stored
	default:
		return false
	}
}
