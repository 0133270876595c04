package experiments

import (
	"bytes"
	"crypto/sha256"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

var update = flag.Bool("update", false, "rewrite testdata/golden.txt, testdata/json and EXPERIMENTS.md's claims table from this tree")

// goldenFile holds one SHA-256 per artifact but the -json documents.
const goldenFile = "testdata/golden.txt"

const goldenHeader = `# SHA-256 of every artifact TestGolden regenerates but the -json documents
# (testdata/json/<id>.json, compared as text), one "name digest" line each.
# A refactor leaves this file alone; a declared re-baseline rewrites it with
#   go test ./internal/experiments -run TestGolden -update
# and names every moved line in CHANGES.md.
`

// TestGolden is "nothing moved" as one test. It builds altobench, the
// examples and the pack CLIs and regenerates every artifact they write: each
// experiment's -json document, compared as text with testdata/json/<id>.json,
// and by digest with testdata/golden.txt its four -workers 2 -scope artifacts
// (Chrome trace, collapsed stacks, top table, metrics), each example's stdout
// and README's CLI session. A failure names every moved artifact and reports
// the first differing line the way TestDeterminism reports a divergence.
func TestGolden(t *testing.T) {
	docs, got := goldenArtifacts(t)
	if *update {
		if err := os.WriteFile(goldenFile, []byte(goldenHeader+strings.Join(got, "\n")+"\n"), 0o644); err != nil {
			t.Fatal(err)
		}
		for id, doc := range docs {
			if err := os.WriteFile(docPath(id), doc, 0o644); err != nil {
				t.Fatal(err)
			}
		}
		_, md, err := claimsMD()
		if err == nil {
			err = os.WriteFile(experimentsMD, []byte(md), 0o644)
		}
		if err != nil {
			t.Fatal(err)
		}
		return
	}
	data, err := os.ReadFile(goldenFile)
	if err != nil {
		t.Fatal(err)
	}
	var want []string
	for _, l := range lines(strings.TrimSpace(string(data))) {
		if !strings.HasPrefix(l, "#") {
			want = append(want, l)
		}
	}
	if d := goldenDiff(want, got); d != "" {
		t.Error(d)
	}
	for _, id := range IDs() {
		want, _ := os.ReadFile(docPath(id)) // TestClaims names a missing document; here it differs from line 1
		if d := firstDiff(docPath(id), "this tree", "line", numbered{1, lines(string(want))}, numbered{1, lines(string(docs[id]))}); d != "" {
			t.Errorf("%s.json moved: %s", id, d)
		}
	}
}

// goldenDiff names the artifacts whose digests differ between want and got
// (lines "name digest"), then the first differing entry with the entries
// before it; "" when they match.
func goldenDiff(want, got []string) string {
	d := firstDiff(goldenFile, "this tree", "golden entry", numbered{lines: want}, numbered{lines: got})
	if d == "" {
		return ""
	}
	digests := func(ls []string) map[string]string {
		m := map[string]string{}
		for _, l := range ls {
			name, sum, _ := strings.Cut(l, " ")
			m[name] = sum
		}
		return m
	}
	w, g := digests(want), digests(got)
	var moved []string
	for _, l := range got {
		name, _, _ := strings.Cut(l, " ")
		if w[name] != g[name] {
			moved = append(moved, name)
		}
	}
	for _, l := range want {
		if name, _, _ := strings.Cut(l, " "); g[name] == "" {
			moved = append(moved, name+" (gone)")
		}
	}
	return fmt.Sprintf("%d artifact(s) moved: %s\n%s", len(moved), strings.Join(moved, ", "), d)
}

// goldenArtifacts builds the commands and returns each experiment's -json
// document by id, and one "name digest" line per other artifact in a fixed
// order.
func goldenArtifacts(t *testing.T) (map[string][]byte, []string) {
	t.Helper()
	bin, out := t.TempDir(), t.TempDir()
	examples, err := filepath.Glob("../../examples/*")
	if err != nil || len(examples) == 0 {
		t.Fatalf("no examples found: %v", err)
	}
	build := exec.Command("go", "build", "-o", bin+string(filepath.Separator),
		"altoos/cmd/altobench", "altoos/cmd/altofs", "altoos/cmd/altoasm", "altoos/cmd/altoexec", "altoos/examples/...")
	if msg, err := build.CombinedOutput(); err != nil {
		t.Fatalf("go build: %v\n%s", err, msg)
	}
	// runIn runs a built command in dir ("" for this one) with stdin as its
	// input and returns its stdout.
	runIn := func(dir, stdin, name string, args ...string) []byte {
		t.Helper()
		cmd := exec.Command(filepath.Join(bin, name), args...)
		cmd.Dir = dir
		cmd.Stdin = strings.NewReader(stdin)
		var stderr bytes.Buffer
		cmd.Stderr = &stderr
		stdout, err := cmd.Output()
		if err != nil {
			t.Fatalf("%s %s: %v\n%s", name, strings.Join(args, " "), err, stderr.String())
		}
		return stdout
	}
	run := func(name string, args ...string) []byte {
		t.Helper()
		return runIn("", "", name, args...)
	}
	readFile := func(path string) []byte {
		t.Helper()
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		return data
	}
	docs := map[string][]byte{}
	var digests []string
	add := func(name string, data []byte) {
		digests = append(digests, fmt.Sprintf("%s %x", name, sha256.Sum256(data)))
	}
	run("altobench", "-workers", "2", "-scope", out)
	for _, id := range IDs() {
		docs[id] = run("altobench", "-json", id)
		for _, suffix := range []string{".trace.json", ".collapsed", ".profile.txt", ".metrics.txt"} {
			add("scope/"+id+suffix, readFile(filepath.Join(out, id+suffix)))
		}
	}
	for _, ex := range examples {
		name := filepath.Base(ex)
		add("examples/"+name+".stdout", run(name))
	}
	// README's CLI session, with a fixed host file in place of README.md so
	// that doc edits do not move the digests.
	session := t.TempDir()
	for _, f := range []string{"host.txt", "hi.asm"} {
		if err := os.WriteFile(filepath.Join(session, f), readFile(filepath.Join("testdata", "cli", f)), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	for _, step := range []struct {
		label, stdin string
		args         []string
	}{
		{"altofs-create", "", []string{"altofs", "create", "alto.img"}},
		{"altofs-put", "", []string{"altofs", "put", "alto.img", "host.txt", "readme.txt"}},
		{"altoasm", "", []string{"altoasm", "hi.asm", "alto.img", "hi.run"}},
		{"altoexec", "ls\ntype readme.txt\nrun hi.run\nquit\n", []string{"altoexec", "alto.img"}},
	} {
		add("cli/"+step.label+".stdout", runIn(session, step.stdin, step.args[0], step.args[1:]...))
	}
	add("cli/alto.img", readFile(filepath.Join(session, "alto.img")))
	return docs, digests
}
