package expt

import (
	"fmt"
	"slices"
	"strings"
)

// Select returns the experiments a comma-separated, case-insensitive ID
// list names, in paper order, or every experiment for an empty list. An
// unknown ID is an error that lists the valid ones.
func Select(ids string) ([]Experiment, error) {
	all := All()
	if strings.TrimSpace(ids) == "" {
		return all, nil
	}
	valid := make([]string, len(all))
	for i, e := range all {
		valid[i] = e.ID
	}
	want := map[string]bool{}
	for _, id := range strings.Split(ids, ",") {
		id = strings.ToUpper(strings.TrimSpace(id))
		if !slices.Contains(valid, id) {
			return nil, fmt.Errorf("unknown experiment %q (valid: %s)", id, strings.Join(valid, ", "))
		}
		want[id] = true
	}
	var picked []Experiment
	for _, e := range all {
		if want[e.ID] {
			picked = append(picked, e)
		}
	}
	return picked, nil
}
