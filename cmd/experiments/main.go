// Command experiments regenerates the paper's tables and figures
// (and the ablations DESIGN.md calls out) from scratch: it simulates
// the two clips, runs the full vision pipeline on the rendered
// pixels, then drives the five-round retrieval protocol.
//
// Usage:
//
//	experiments            # run everything
//	experiments -exp fig8  # run one experiment (see -list)
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"milvideo/internal/experiments"
)

func main() {
	exp := flag.String("exp", "all", "experiment to run (all, or one of -list)")
	list := flag.Bool("list", false, "list experiment names and exit")
	flag.Parse()

	if *list {
		fmt.Println(strings.Join(experiments.Names(), "\n"))
		return
	}
	var tables []experiments.Table
	var err error
	if *exp == "all" {
		tables, err = experiments.All()
	} else {
		var t experiments.Table
		t, err = experiments.ByName(*exp)
		tables = []experiments.Table{t}
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, err) // the package's errors name it
		os.Exit(1)
	}
	for i, t := range tables {
		if i > 0 {
			fmt.Println()
		}
		fmt.Print(t.Format())
	}
}
