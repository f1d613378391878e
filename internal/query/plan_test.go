package query

import "testing"

func TestColumnsFromProjection(t *testing.T) {
	prep, err := PrepareString("SELECT objid, ra, dec, r, class FROM tag WHERE r < 20")
	if err != nil {
		t.Fatal(err)
	}
	cols := prep.Columns()
	want := []Column{
		{Name: "objid", Type: TypeID},
		{Name: "ra", Type: TypeFloat},
		{Name: "dec", Type: TypeFloat},
		{Name: "r", Type: TypeFloat},
		{Name: "class", Type: TypeInt},
	}
	if len(cols) != len(want) {
		t.Fatalf("got %d columns, want %d", len(cols), len(want))
	}
	for i := range want {
		if cols[i] != want[i] {
			t.Errorf("column %d = %+v, want %+v", i, cols[i], want[i])
		}
	}
}

func TestColumnsStar(t *testing.T) {
	prep, err := PrepareString("SELECT * FROM tag")
	if err != nil {
		t.Fatal(err)
	}
	cols := prep.Columns()
	if len(cols) != NumAttrs(TableTag) {
		t.Fatalf("star projects %d columns, want %d", len(cols), NumAttrs(TableTag))
	}
	if cols[0].Name != "objid" {
		t.Errorf("first star column = %+v", cols[0])
	}
	for i, c := range cols {
		if c.Name == "" {
			t.Errorf("column %d has no canonical name", i)
		}
	}
}

func TestColumnsAggregateAndSetOp(t *testing.T) {
	prep, err := PrepareString("SELECT COUNT(*) FROM specobj")
	if err != nil {
		t.Fatal(err)
	}
	if cols := prep.Columns(); len(cols) != 1 || cols[0].Name != "count(*)" || cols[0].Type != TypeInt {
		t.Errorf("count columns = %+v", cols)
	}

	prep, err = PrepareString("SELECT MIN(redshift) FROM specobj")
	if err != nil {
		t.Fatal(err)
	}
	if cols := prep.Columns(); len(cols) != 1 || cols[0].Name != "min(redshift)" || cols[0].Type != TypeFloat {
		t.Errorf("min columns = %+v", cols)
	}

	// Set operations take the left branch's schema, as in SQL.
	prep, err = PrepareString("SELECT objid, r FROM tag WHERE r < 18 UNION SELECT objid, g FROM tag WHERE g < 18")
	if err != nil {
		t.Fatal(err)
	}
	cols := prep.Columns()
	if len(cols) != 2 || cols[1].Name != "r" {
		t.Errorf("union columns = %+v", cols)
	}
}

func TestCanonicalNamesRoundTrip(t *testing.T) {
	for _, tb := range []Table{TablePhoto, TableTag, TableSpec} {
		for i := 0; i < NumAttrs(tb); i++ {
			name := AttrName(tb, AttrID(i))
			if name == "" {
				t.Fatalf("%s attr %d has no canonical name", tb, i)
			}
			id, err := Resolve(tb, name)
			if err != nil {
				t.Fatalf("%s: canonical name %q does not resolve: %v", tb, name, err)
			}
			if id != AttrID(i) {
				t.Errorf("%s: %q resolves to %d, want %d", tb, name, id, i)
			}
		}
	}
	if AttrName(TableTag, AttrInvalid) != "" {
		t.Error("AttrInvalid has a name")
	}
	if AttrName(TableTag, AttrID(NumAttrs(TableTag))) != "" {
		t.Error("out-of-range attr has a name")
	}
}

func TestTableColumnsSchemaDiscovery(t *testing.T) {
	cols := TableColumns(TableSpec)
	if len(cols) != NumAttrs(TableSpec) {
		t.Fatalf("spec schema has %d columns", len(cols))
	}
	byName := map[string]ColType{}
	for _, c := range cols {
		byName[c.Name] = c.Type
	}
	for name, want := range map[string]ColType{
		"objid": TypeID, "htmid": TypeID, "redshift": TypeFloat,
		"plate": TypeInt, "class": TypeInt, "sn": TypeFloat,
	} {
		if byName[name] != want {
			t.Errorf("spec %s type = %s, want %s", name, byName[name], want)
		}
	}
}
