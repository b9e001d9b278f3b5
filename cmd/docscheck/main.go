// Command docscheck verifies documentation consistency: every repository
// file referenced from the core documents (README.md, DESIGN.md,
// EXPERIMENTS.md, docs/PROTOCOL.md, docs/KERNELS.md, docs/FLEET.md,
// docs/ROBUSTNESS.md, docs/ONLINE.md, docs/RENT.md, doc.go) and from the
// package comment of each cmd/decima-*/main.go must exist. It
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
// Command lines rot the same way when a flag is deleted. In all of these
// but docs/RENT.md (the register of deleted features, which names removed
// flags on purpose), a command line is an inline code span, a line of a
// fenced or indented code block, or a tab-indented example line of a Go
// comment, that starts with "decima-<bin> " or "go run ./cmd/decima-<bin> "
// (the binary may carry a path, as in bin/decima-server). Up to its first
// shell operator or comment it may name only -flag tokens that
// cmd/decima-<bin> defines with flag.*("name", …); the defined set is read
// from the command's source, so there is no list to keep in step by hand.
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
	// line); codeRe a line of an indented code block or, in Go, of a
	// comment's example; cmdRe a command line, binary and arguments.
	fenceRe = regexp.MustCompile("(?ms)^[ \t]*```.*?^[ \t]*```")
	spanRe  = regexp.MustCompile("`[^`]+`")
	codeRe  = regexp.MustCompile(`(?m)^(?:    |\t|//\t)(.*)$`)
	cmdRe   = regexp.MustCompile(`^\s*(?:\$\s+)?(?:go run\s+)?(?:\S*/)?(decima-[a-z]+)\s+(.*)$`)
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
	mains, _ := filepath.Glob(filepath.Join(*root, "cmd", "decima-*", "main.go"))
	for _, main := range mains {
		rel, _ := filepath.Rel(*root, main)
		docs = append(docs, rel)
	}
	for _, doc := range docs {
		path := filepath.Join(*root, doc)
		data, err := os.ReadFile(path)
		if err != nil {
			fmt.Fprintf(os.Stderr, "docscheck: cannot read %s: %v\n", doc, err)
			bad++
			continue
		}
		text := string(data)
		if strings.HasSuffix(doc, ".go") {
			text, _, _ = strings.Cut(text, "\npackage ") // the package comment
		}
		seen := map[string]bool{}
		for _, ref := range refRe.FindAllString(urlRe.ReplaceAllString(text, ""), -1) {
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
			bad += checkFlags(*root, doc, commandLines(text), defined)
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

// commandLines returns the text of doc's inline code spans outside fenced
// blocks, and every line of its fenced and indented code blocks.
func commandLines(doc string) []string {
	var lines []string
	for _, span := range spanRe.FindAllString(fenceRe.ReplaceAllString(doc, ""), -1) {
		lines = append(lines, strings.Trim(span, "`"))
	}
	for _, fence := range fenceRe.FindAllString(doc, -1) {
		lines = append(lines, strings.Split(fence, "\n")...)
	}
	for _, m := range codeRe.FindAllStringSubmatch(doc, -1) {
		lines = append(lines, m[1])
	}
	return lines
}

// checkFlags reports each -flag that a decima-<bin> command line among
// lines names and cmd/decima-<bin> does not define, and returns how many it
// found. A line's arguments end at the first shell operator or comment.
func checkFlags(root, doc string, lines []string, defined map[string]map[string]bool) int {
	bad := 0
	for _, line := range lines {
		m := cmdRe.FindStringSubmatch(line)
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
			fmt.Fprintf(os.Stderr, "docscheck: %s: %q names a binary with no cmd/%s\n", doc, line, bin)
			bad++
			continue
		}
		for _, tok := range strings.Fields(m[2]) {
			if strings.ContainsAny(tok[:1], "|&;>#") || strings.HasPrefix(tok, "2>") {
				break
			}
			for _, part := range strings.Split(tok, "/") {
				opt := optRe.FindStringSubmatch(part)
				if opt != nil && !flags[opt[1]] {
					fmt.Fprintf(os.Stderr, "docscheck: %s: %q names -%s, which cmd/%s does not define\n", doc, strings.TrimSpace(line), opt[1], bin)
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
