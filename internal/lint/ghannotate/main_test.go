package main

import "testing"

func TestAnnotateEscapes(t *testing.T) {
	f := finding{
		File:     "internal/qe/morsel.go",
		Line:     42,
		Col:      7,
		Analyzer: "lockheld",
		Message:  "blocking send\nwhile holding a lock: 50% stalled",
	}
	got := annotate(f)
	want := "::error file=internal/qe/morsel.go,line=42,col=7,title=skylint/lockheld::blocking send%0Awhile holding a lock: 50%25 stalled"
	if got != want {
		t.Fatalf("annotate mismatch:\n got %q\nwant %q", got, want)
	}
}

func TestAnnotatePropEscapes(t *testing.T) {
	f := finding{File: "a,b:c.go", Line: 1, Col: 1, Analyzer: "x", Message: "m"}
	got := annotate(f)
	want := "::error file=a%2Cb%3Ac.go,line=1,col=1,title=skylint/x::m"
	if got != want {
		t.Fatalf("annotate mismatch:\n got %q\nwant %q", got, want)
	}
}
