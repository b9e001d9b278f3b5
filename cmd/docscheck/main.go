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
// Command lines rot the same way when a flag is deleted. In every core
// document but docs/RENT.md (the register of deleted features, which names
// removed flags on purpose), an inline code span that starts with
// "decima-<bin> " may name only -flag tokens that cmd/decima-<bin> defines
// with flag.*("name", …); the defined set is read from the command's
// source, so there is no list to keep in step by hand.
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

// flagsExempt is the document whose command spans are not checked against
// the binaries: it records deleted flags.
const flagsExempt = "docs/RENT.md"

var (
	urlRe = regexp.MustCompile(`https?://\S+`)
	refRe = regexp.MustCompile(`[A-Za-z0-9_./-]+\.(?:md|json|go|yml)\b`)

	// fenceRe matches a fenced code block, whose backticks would otherwise
	// pair with inline spans; spanRe an inline code span (it may wrap a
	// line); cmdRe a span that is a decima-<bin> command line.
	fenceRe = regexp.MustCompile("(?ms)^[ \t]*```.*?^[ \t]*```")
	spanRe  = regexp.MustCompile("`[^`]+`")
	cmdRe   = regexp.MustCompile(`^\x60(decima-[a-z]+)\s([^\x60]*)\x60$`)
	// optRe is a -flag or --flag token's name; defRe a flag definition,
	// flag.T("name", …) or flag.TVar(&v, "name", …).
	optRe = regexp.MustCompile(`^--?([a-z][a-z0-9-]*)`)
	defRe = regexp.MustCompile(`flag\.[A-Za-z0-9]+\(\s*(?:&?[A-Za-z_][A-Za-z0-9_.]*\s*,\s*)?"([^"]+)"`)
)

func main() {
	root := flag.String("root", ".", "repository root")
	flag.Parse()

	bad := 0
	defined := map[string]map[string]bool{} // binary -> its flags, read on first use
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
		if doc != flagsExempt {
			bad += checkFlags(*root, doc, string(data), defined)
		}
	}
	if bad > 0 {
		fmt.Fprintf(os.Stderr, "docscheck: %d problem(s)\n", bad)
		os.Exit(1)
	}
	fmt.Println("docscheck: all documentation references resolve and every documented flag exists")
}

func exists(p string) bool {
	_, err := os.Stat(p)
	return err == nil
}

// checkFlags reports each -flag named by a `decima-<bin> …` span of doc
// that cmd/decima-<bin> does not define, and returns how many it found.
func checkFlags(root, doc, text string, defined map[string]map[string]bool) int {
	bad := 0
	for _, span := range spanRe.FindAllString(fenceRe.ReplaceAllString(text, ""), -1) {
		m := cmdRe.FindStringSubmatch(span)
		if m == nil {
			continue
		}
		bin := m[1]
		flags, ok := defined[bin]
		if !ok {
			flags = binaryFlags(filepath.Join(root, "cmd", bin))
			defined[bin] = flags
		}
		if flags == nil {
			fmt.Fprintf(os.Stderr, "docscheck: %s: %s names a binary with no cmd/%s\n", doc, span, bin)
			bad++
			continue
		}
		for _, tok := range strings.Fields(m[2]) {
			for _, part := range strings.Split(tok, "/") {
				opt := optRe.FindStringSubmatch(part)
				if opt != nil && !flags[opt[1]] {
					fmt.Fprintf(os.Stderr, "docscheck: %s: %s names -%s, which cmd/%s does not define\n", doc, span, opt[1], bin)
					bad++
				}
			}
		}
	}
	return bad
}

// binaryFlags returns the flag names the command in dir defines (plus the
// flag package's own -h and -help), or nil when dir holds no Go source.
func binaryFlags(dir string) map[string]bool {
	files, _ := filepath.Glob(filepath.Join(dir, "*.go"))
	if len(files) == 0 {
		return nil
	}
	flags := map[string]bool{"h": true, "help": true}
	for _, f := range files {
		src, err := os.ReadFile(f)
		if err != nil || strings.HasSuffix(f, "_test.go") {
			continue
		}
		for _, m := range defRe.FindAllStringSubmatch(string(src), -1) {
			flags[m[1]] = true
		}
	}
	return flags
}
