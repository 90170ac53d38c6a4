// Command pinlint runs pinscope's custom static-analysis suite — the
// determinism, export-shape, concurrency and durability invariants the
// simulation and serving layers depend on — over the packages matching
// its arguments (default ./...).
//
//	pinlint ./...    # whole tree (what scripts/check.sh runs)
//	pinlint -list    # describe the analyzers
//
// Findings print as file:line:col and the exit status is 1 when any
// remain after //pinlint:allow suppression, 2 when the packages cannot be
// loaded. See DESIGN.md §6 and §10.
package main

import (
	"flag"
	"fmt"
	"os"

	"pinscope/internal/lint"
)

func main() {
	listFlag := flag.Bool("list", false, "list analyzers and exit")
	flag.Usage = func() {
		fmt.Fprintf(os.Stderr, "usage: pinlint [-list] [packages]\n")
		flag.PrintDefaults()
	}
	flag.Parse()

	suite := lint.Suite(lint.DefaultConfig())
	if *listFlag {
		for _, a := range suite {
			fmt.Printf("%-18s %s\n", a.Name, a.Doc)
		}
		return
	}

	patterns := flag.Args()
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}
	wd, err := os.Getwd()
	if err != nil {
		fmt.Fprintln(os.Stderr, "pinlint:", err)
		os.Exit(2)
	}
	diags, err := lint.Run(wd, patterns, suite)
	if err != nil {
		fmt.Fprintln(os.Stderr, "pinlint:", err)
		os.Exit(2)
	}
	for _, d := range diags {
		fmt.Println(d.String())
	}
	if len(diags) > 0 {
		fmt.Fprintf(os.Stderr, "pinlint: %d finding(s)\n", len(diags))
		os.Exit(1)
	}
}
