package expt

import (
	"strings"
	"testing"
)

func TestSelect(t *testing.T) {
	ids := func(es []Experiment) string {
		var s []string
		for _, e := range es {
			s = append(s, e.ID)
		}
		return strings.Join(s, ",")
	}
	if got, err := Select(""); err != nil || len(got) != len(All()) {
		t.Errorf(`Select("") = %d experiments, %v; want all %d`, len(got), err, len(All()))
	}
	got, err := Select("a1, e7,E6,e6")
	if err != nil {
		t.Fatal(err)
	}
	if ids(got) != "E6,E7,A1" {
		t.Errorf("Select picked %s, want E6,E7,A1 in paper order", ids(got))
	}

	_, err = Select("E6,e99")
	if err == nil {
		t.Fatal("an unknown ID was accepted")
	}
	for _, want := range []string{"E99", "E1", "E14", "A3"} {
		if !strings.Contains(err.Error(), want) {
			t.Errorf("error %q does not mention %s", err, want)
		}
	}
}
