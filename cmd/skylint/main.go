package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"strings"

	"sdss/internal/lint/analysis"
	"sdss/internal/lint/lockheld"
	"sdss/internal/lint/nansafe"
	"sdss/internal/lint/rawoffset"
)

// analyzers is the skylint suite, in documentation order.
var analyzers = []*analysis.Analyzer{
	rawoffset.Analyzer,
	nansafe.Analyzer,
	lockheld.Analyzer,
}

// finding is the NDJSON record -json emits, one per line.
type finding struct {
	File     string `json:"file"`
	Line     int    `json:"line"`
	Col      int    `json:"col"`
	Analyzer string `json:"analyzer"`
	Message  string `json:"message"`
}

func main() {
	// go vet's -V=full / -flags / unit.cfg protocol takes priority; if the
	// arguments match it, VettoolMain exits the process itself.
	if analysis.VettoolMain(os.Args[1:], analyzers) {
		return
	}

	list := flag.Bool("list", false, "list the analyzers and exit")
	dir := flag.String("C", "", "change to this directory (module root) before loading packages")
	asJSON := flag.Bool("json", false, "emit findings as NDJSON instead of text")
	flag.Usage = func() {
		fmt.Fprintf(os.Stderr, "usage: skylint [-list] [-json] [-C dir] packages...\n")
		flag.PrintDefaults()
	}
	flag.Parse()

	if *list {
		for _, a := range analyzers {
			doc, _, _ := strings.Cut(a.Doc, "\n")
			fmt.Printf("%-10s %s\n", a.Name, doc)
		}
		return
	}

	patterns := flag.Args()
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}
	pkgs, err := analysis.Load(*dir, patterns)
	if err != nil {
		fmt.Fprintln(os.Stderr, "skylint:", err)
		os.Exit(1)
	}
	enc := json.NewEncoder(os.Stdout)
	findings := 0
	for _, pkg := range pkgs {
		diags, err := pkg.Run(analyzers)
		if err != nil {
			fmt.Fprintf(os.Stderr, "skylint: %s: %v\n", pkg.ImportPath, err)
			os.Exit(1)
		}
		for _, d := range diags {
			pos := pkg.Fset.Position(d.Pos)
			if *asJSON {
				if err := enc.Encode(finding{
					File:     pos.Filename,
					Line:     pos.Line,
					Col:      pos.Column,
					Analyzer: d.Analyzer,
					Message:  d.Message,
				}); err != nil {
					fmt.Fprintln(os.Stderr, "skylint:", err)
					os.Exit(1)
				}
			} else {
				fmt.Printf("%s: %s: %s\n", pos, d.Analyzer, d.Message)
			}
			findings++
		}
	}
	if findings > 0 {
		fmt.Fprintf(os.Stderr, "skylint: %d finding(s)\n", findings)
		os.Exit(1)
	}
}
