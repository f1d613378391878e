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
		key                     string
		mayBlock, unguardedSend bool
	}{
		{"p.direct", true, true},
		{"p.indirect", true, true}, // inherited through the call
		{"p.viaWaitGroup", true, false},
		{"p.selectDefault", false, false},
		{"p.selectNoDefault", true, false}, // blocks, but send is select-guarded
		{"p.spawnsOnly", false, false},     // the goroutine's facts are its own
		{"p.recursesA", true, true},        // fixed point over mutual recursion
		{"p.recursesB", true, true},
		{"p.forwards", true, false}, // range-over-channel forward is sanctioned
	}
	for _, c := range cases {
		f := lookup(t, s, c.key)
		if f.MayBlock != c.mayBlock {
			t.Errorf("%s: MayBlock = %v (%s), want %v", c.key, f.MayBlock, f.BlockWhy, c.mayBlock)
		}
		if f.UnguardedSend != c.unguardedSend {
			t.Errorf("%s: UnguardedSend = %v (%s), want %v", c.key, f.UnguardedSend, f.SendWhy, c.unguardedSend)
		}
	}

	// The completion channel is made with cap len(xs) and sent once per
	// range iteration: the send is proven non-blocking, so only the
	// receives make the function blocking.
	f := lookup(t, s, "p.bufferedCompletion")
	if f.UnguardedSend {
		t.Errorf("bufferedCompletion: UnguardedSend = true (%s), want proven-buffered exemption", f.SendWhy)
	}
	if !f.MayBlock {
		t.Error("bufferedCompletion: MayBlock = false, want true (drain receives)")
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
	if f == nil || !f.MayBlock || !f.UnguardedSend {
		t.Fatalf("round-tripped p.indirect = %+v, want MayBlock+UnguardedSend", f)
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
	if !f.MayBlock || !f.UnguardedSend {
		t.Errorf("wrapper facts = %+v, want blocking+unguarded inherited across the decode boundary", f)
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
