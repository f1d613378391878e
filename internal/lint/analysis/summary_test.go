package analysis_test

import (
	"go/importer"
	"go/token"
	"strings"
	"testing"

	"sdss/internal/lint/analysis"
)

// checkSummaries loads src as package p and returns its computed summaries
// layered over deps.
func checkSummaries(t *testing.T, src string, deps *analysis.Summaries) *analysis.Summaries {
	t.Helper()
	fset := token.NewFileSet()
	lp, err := analysis.CheckFiles(fset, "p", []string{"p.go"},
		map[string]any{"p.go": src}, importer.ForCompiler(fset, "source", nil))
	if err != nil {
		t.Fatal(err)
	}
	return analysis.ComputeSummaries(fset, lp.Files, lp.Info, deps)
}

func lookup(t *testing.T, s *analysis.Summaries, key string) *analysis.FuncFacts {
	t.Helper()
	f := s.LookupKey(key)
	if f == nil {
		t.Fatalf("no summary for %s", key)
	}
	return f
}

const blockSrc = `package p

import "sync"

func direct(ch chan int) { ch <- 1 }

func indirect(ch chan int) { direct(ch) }

func viaWaitGroup(wg *sync.WaitGroup) { wg.Wait() }

func selectDefault(ch chan int) {
	select {
	case ch <- 1:
	default:
	}
}

func selectNoDefault(ch chan int, done chan struct{}) {
	select {
	case ch <- 1:
	case <-done:
	}
}

func spawnsOnly(ch chan int) {
	go func() { ch <- 1 }()
}

func recursesA(ch chan int) { recursesB(ch) }
func recursesB(ch chan int) {
	if cap(ch) > 0 {
		recursesA(ch)
	}
	ch <- 1
}

func forwards(in, out chan int) {
	for v := range in {
		out <- v
	}
}

func bufferedOnly(xs []int) {
	done := make(chan int, len(xs))
	for _, x := range xs {
		done <- x
	}
}

func bufferedCompletion(xs []int) int {
	done := make(chan int, len(xs))
	for _, x := range xs {
		go func(x int) { done <- x }(x)
	}
	sum := 0
	for range xs {
		sum += <-done
	}
	return sum
}
`

func TestSummaryBlocking(t *testing.T) {
	s := checkSummaries(t, blockSrc, nil)
	cases := []struct {
		key      string
		mayBlock bool
	}{
		{"p.direct", true},
		{"p.indirect", true}, // inherited through the call
		{"p.viaWaitGroup", true},
		{"p.selectDefault", false},
		{"p.selectNoDefault", true},
		{"p.spawnsOnly", false}, // the goroutine's facts are its own
		{"p.recursesA", true},   // fixed point over mutual recursion
		{"p.recursesB", true},
		{"p.forwards", true},
		// The channel is made with cap len(xs) and sent once per range
		// iteration: the send is proven non-blocking.
		{"p.bufferedOnly", false},
		// The same proven send, but the drain receives block.
		{"p.bufferedCompletion", true},
	}
	for _, c := range cases {
		f := lookup(t, s, c.key)
		if f.MayBlock != c.mayBlock {
			t.Errorf("%s: MayBlock = %v (%s), want %v", c.key, f.MayBlock, f.BlockWhy, c.mayBlock)
		}
	}
}

func TestSummaryRoundTrip(t *testing.T) {
	s := checkSummaries(t, blockSrc, nil)
	data, err := s.Encode()
	if err != nil {
		t.Fatal(err)
	}
	back, err := analysis.DecodeSummaries(data, nil)
	if err != nil {
		t.Fatal(err)
	}
	f := back.LookupKey("p.indirect")
	if f == nil || !f.MayBlock {
		t.Fatalf("round-tripped p.indirect = %+v, want MayBlock", f)
	}
}

// TestSummaryAcrossLayers simulates the cross-package import: facts decoded
// from another package's serialized layer propagate into callers.
func TestSummaryAcrossLayers(t *testing.T) {
	dep := checkSummaries(t, blockSrc, nil)
	data, err := dep.Encode()
	if err != nil {
		t.Fatal(err)
	}
	decoded, err := analysis.DecodeSummaries(data, nil)
	if err != nil {
		t.Fatal(err)
	}
	// Same package name trick: the caller calls direct(), resolved against
	// the decoded layer by key.
	caller := checkSummaries(t, `package p

func direct(ch chan int) // declared elsewhere in the package

func wrapper(ch chan int) { direct(ch) }
`, decoded)
	f := lookup(t, caller, "p.wrapper")
	if !f.MayBlock {
		t.Errorf("wrapper facts = %+v, want blocking inherited across the decode boundary", f)
	}
}

func TestSummaryEncodeDeterministic(t *testing.T) {
	s := checkSummaries(t, blockSrc, nil)
	a, _ := s.Encode()
	b, _ := s.Encode()
	if string(a) != string(b) {
		t.Error("Encode is not deterministic")
	}
	if !strings.Contains(string(a), "p.direct") {
		t.Errorf("encoded summaries missing p.direct:\n%s", a)
	}
}
