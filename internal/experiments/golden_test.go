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

var update = flag.Bool("update", false, "rewrite testdata/golden.txt from this tree")

// goldenFile holds one SHA-256 per artifact, one "name digest" line each.
const goldenFile = "testdata/golden.txt"

const goldenHeader = `# SHA-256 of every artifact TestGolden regenerates, one "name digest" line each.
# A refactor leaves this file alone; a declared re-baseline rewrites it with
#   go test ./internal/experiments -run TestGolden -update
# and names every moved line in CHANGES.md.
`

// TestGolden is "nothing moved" as one test. It builds altobench and the
// examples, regenerates every artifact they write — each experiment's
// Chrome trace, metrics snapshot and -json document, E10's four -scope
// artifacts, and each example's stdout — and compares their digests with
// testdata/golden.txt. A failure names every moved artifact and reports the
// first differing golden line the way TestDeterminism reports a divergence.
func TestGolden(t *testing.T) {
	got := goldenDigests(t)
	if *update {
		if err := os.WriteFile(goldenFile, []byte(goldenHeader+strings.Join(got, "\n")+"\n"), 0o644); err != nil {
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
		t.Fatal(d)
	}
}

// goldenDiff names the artifacts whose digests differ between want and got
// (lines "name digest"), then the first differing entry with the entries
// before it; "" when they match.
func goldenDiff(want, got []string) string {
	d := firstDiff(goldenFile, "this tree", "golden entry", want, got)
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

// goldenDigests builds the commands and returns one "name digest" line per
// artifact, in a fixed order.
func goldenDigests(t *testing.T) []string {
	t.Helper()
	bin, out := t.TempDir(), t.TempDir()
	examples, err := filepath.Glob("../../examples/*")
	if err != nil || len(examples) == 0 {
		t.Fatalf("no examples found: %v", err)
	}
	build := exec.Command("go", "build", "-o", bin+string(filepath.Separator), "altoos/cmd/altobench", "altoos/examples/...")
	if msg, err := build.CombinedOutput(); err != nil {
		t.Fatalf("go build: %v\n%s", err, msg)
	}
	run := func(name string, args ...string) []byte {
		t.Helper()
		cmd := exec.Command(filepath.Join(bin, name), args...)
		var stderr bytes.Buffer
		cmd.Stderr = &stderr
		stdout, err := cmd.Output()
		if err != nil {
			t.Fatalf("%s %s: %v\n%s", name, strings.Join(args, " "), err, stderr.String())
		}
		return stdout
	}
	readFile := func(path string) []byte {
		t.Helper()
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		return data
	}
	var digests []string
	add := func(name string, data []byte) {
		digests = append(digests, fmt.Sprintf("%s %x", name, sha256.Sum256(data)))
	}
	for _, id := range IDs() {
		tr, mt := filepath.Join(out, id+".trace.json"), filepath.Join(out, id+".metrics.json")
		run("altobench", "-trace", tr, "-metrics", mt, id)
		add(id+".trace.json", readFile(tr))
		add(id+".metrics.json", readFile(mt))
		add(id+".json", run("altobench", "-json", id))
	}
	scopeDir := filepath.Join(out, "scope")
	if err := os.Mkdir(scopeDir, 0o755); err != nil {
		t.Fatal(err)
	}
	run("altobench", "-workers", "2", "-scope", scopeDir, "e10")
	for _, suffix := range []string{".trace.json", ".collapsed", ".profile.txt", ".metrics.txt"} {
		add("scope/e10"+suffix, readFile(filepath.Join(scopeDir, "e10"+suffix)))
	}
	for _, ex := range examples {
		name := filepath.Base(ex)
		add("examples/"+name+".stdout", run(name))
	}
	return digests
}
