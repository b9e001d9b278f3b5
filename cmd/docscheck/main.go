// Command docscheck verifies documentation consistency: every repository
// file referenced from the core documents (README.md, DESIGN.md,
// EXPERIMENTS.md, docs/PROTOCOL.md, docs/KERNELS.md, docs/FLEET.md,
// docs/ROBUSTNESS.md, docs/ONLINE.md, docs/RENT.md, doc.go) must exist. It
// exists because docs rot silently — doc.go once pointed readers at an
// EXPERIMENTS.md that was never written — and CI runs it (make docs-check)
// so a renamed or deleted file fails the build instead of stranding readers.
//
// A reference is any token ending in .md, .json, .go or .yml. URLs are
// ignored; tokens containing glob or brace-expansion metacharacters are
// ignored, as is the one generated artifact, BENCH_robustness.json (the
// gitignored output of `make bench-robustness`, absent on a fresh checkout
// by design). A
// reference resolves if it exists relative to the repository root or
// relative to the referencing document's directory.
//
//	docscheck [-root dir]
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"regexp"
	"strings"
)

// docs are the documents whose references must resolve, relative to the
// repository root.
var docs = []string{
	"README.md",
	"DESIGN.md",
	"EXPERIMENTS.md",
	"docs/PROTOCOL.md",
	"docs/KERNELS.md",
	"docs/FLEET.md",
	"docs/ROBUSTNESS.md",
	"docs/ONLINE.md",
	"docs/RENT.md",
	"doc.go",
}

var (
	urlRe = regexp.MustCompile(`https?://\S+`)
	refRe = regexp.MustCompile(`[A-Za-z0-9_./-]+\.(?:md|json|go|yml)\b`)
)

func main() {
	root := flag.String("root", ".", "repository root")
	flag.Parse()

	bad := 0
	for _, doc := range docs {
		path := filepath.Join(*root, doc)
		data, err := os.ReadFile(path)
		if err != nil {
			fmt.Fprintf(os.Stderr, "docscheck: cannot read %s: %v\n", doc, err)
			bad++
			continue
		}
		text := urlRe.ReplaceAllString(string(data), "")
		seen := map[string]bool{}
		for _, ref := range refRe.FindAllString(text, -1) {
			ref = strings.TrimLeft(ref, "./")
			if ref == "" || seen[ref] || strings.ContainsAny(ref, "*{}$") {
				continue
			}
			if filepath.Base(ref) == "BENCH_robustness.json" {
				continue // generated artifact, absent on fresh checkouts
			}
			seen[ref] = true
			if exists(filepath.Join(*root, ref)) ||
				exists(filepath.Join(filepath.Dir(path), ref)) {
				continue
			}
			fmt.Fprintf(os.Stderr, "docscheck: %s references missing file %q\n", doc, ref)
			bad++
		}
	}
	if bad > 0 {
		fmt.Fprintf(os.Stderr, "docscheck: %d broken reference(s)\n", bad)
		os.Exit(1)
	}
	fmt.Println("docscheck: all documentation references resolve")
}

func exists(p string) bool {
	_, err := os.Stat(p)
	return err == nil
}
