package experiments

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"slices"
	"strconv"
	"strings"
	"testing"
)

// docPath is where the -json document of an experiment is checked in.
func docPath(id string) string { return filepath.Join("testdata", "json", id+".json") }

// readDoc reads an experiment's checked-in -json document.
func readDoc(id string) (*Result, error) {
	data, err := os.ReadFile(docPath(id))
	if err != nil {
		return nil, err
	}
	doc := &Result{}
	if err := json.Unmarshal(data, doc); err != nil {
		return nil, fmt.Errorf("%s: %w", docPath(id), err)
	}
	return doc, nil
}

// num renders a value to four significant digits, integers in full.
func num(v float64) string {
	if v == math.Trunc(v) || math.Abs(v) >= 1e4 {
		return strconv.FormatFloat(v, 'f', 0, 64)
	}
	return strconv.FormatFloat(v, 'g', 4, 64)
}

// String renders the band as failures and EXPERIMENTS.md print it.
func (b band) String() string {
	if math.IsInf(b.hi, 1) {
		return "≥ " + num(b.lo)
	}
	return "[" + num(b.lo) + ", " + num(b.hi) + "]"
}

// bandFailures describes every band of e that metrics miss, naming the id,
// the metric, its value, the band and why the band holds.
func bandFailures(e *experiment, metrics map[string]float64) []string {
	var out []string
	for _, b := range e.bands {
		v, ok := metrics[b.metric]
		switch {
		case !ok:
			out = append(out, fmt.Sprintf("%s: %s missing, want %v: %s", e.id, b.metric, b, b.why))
		case v < b.lo || v > b.hi:
			out = append(out, fmt.Sprintf("%s: %s = %v, want %v: %s", e.id, b.metric, v, b, b.why))
		}
	}
	return out
}

// check holds one metric of a result within [lo, hi].
func check(t *testing.T, r *Result, metric string, lo, hi float64) {
	t.Helper()
	for _, msg := range bandFailures(&experiment{id: r.ID, bands: []band{{metric: metric, lo: lo, hi: hi}}}, r.Metrics) {
		t.Error(msg)
	}
}

// TestClaims holds each checked-in -json document, which TestGolden proves
// equal to this tree's output, to its registry entry, one subtest per id:
// the id, a claim, rows and every band. No experiment runs again, and every
// value is deterministic, so a band is a tripwire, not a flaky threshold.
// It also checks that EXPERIMENTS.md carries the claims table they render.
func TestClaims(t *testing.T) {
	// Every id's subtest reads its document, so 19 documents leave none over.
	if docs, _ := filepath.Glob(docPath("*")); len(registry) != 19 || len(IDs()) != 19 || len(docs) != 19 {
		t.Fatalf("registry has %d experiments, IDs lists %d and testdata has %d documents, want 19 each", len(registry), len(IDs()), len(docs))
	}
	for i := range registry {
		e := &registry[i]
		t.Run(e.id, func(t *testing.T) {
			doc, err := readDoc(e.id)
			if err != nil {
				t.Fatal(err)
			}
			if doc.ID != strings.ToUpper(e.id) || doc.Claim == "" || len(doc.Rows) == 0 {
				t.Errorf("document %s has claim %q and %d rows; want a claim and rows", doc.ID, doc.Claim, len(doc.Rows))
			}
			for _, msg := range bandFailures(e, doc.Metrics) {
				t.Error(msg)
			}
		})
	}
	have, want, err := claimsMD()
	if err != nil {
		t.Fatal(err)
	}
	if d := firstDiff(experimentsMD, "rendered", "line", numbered{1, lines(have)}, numbered{1, lines(want)}); d != "" {
		t.Errorf("claims table is stale (go test ./internal/experiments -run TestGolden -update rewrites it): %s", d)
	}
}

// TestClaimRelations checks, on the same documents, the claims that order
// metrics against each other rather than hold one within a band.
func TestClaimRelations(t *testing.T) {
	m := map[string]map[string]float64{}
	for _, id := range []string{"e5", "e7", "e11"} {
		doc, err := readDoc(id)
		if err != nil {
			t.Fatal(err)
		}
		m[id] = doc.Metrics
	}
	// E5: each level of the hint ladder costs more than the one before.
	if l := m["e5"]; !(l["ms_direct_hint"] < l["ms_kth_page"] && l["ms_kth_page"] < l["ms_link_chase"] &&
		l["ms_link_chase"] < l["ms_fv_lookup"] && l["ms_fv_lookup"] < l["ms_scavenge"]) {
		t.Errorf("e5: hint ladder not ordered (direct < kth < chase < fv < scavenge): %v", l)
	}
	// E7: Junta frees every level but a resident floor of about 900 words.
	if full, freed := m["e7"]["full_resident_words"], m["e7"]["max_words_freed"]; freed >= full || full-freed > 2048 {
		t.Errorf("e7: freed %v of %v resident words: level 1 must stay, and InLoad/OutLoad is about 900 words", freed, full)
	}
	// E11: loss must cost something, but the transport must keep most of
	// the goodput at 20% loss — the point of selective repeat.
	if g0, g20 := m["e11"]["goodput_words_per_sec_loss0"], m["e11"]["goodput_words_per_sec_loss20"]; g20 <= 0 || g20 >= g0 || g20 < g0/4 {
		t.Errorf("e11: goodput %.0f words/s at 20%% loss, %.0f lossless: want below it and at least a quarter of it", g20, g0)
	}
}

// TestClaimsReportMisses feeds the band checker a fake entry and document
// with a value below its band, one above and one missing: each failure
// names the id, the metric, the value, the band and why.
func TestClaimsReportMisses(t *testing.T) {
	e := &experiment{id: "x1", bands: []band{
		{"low", 1, 2, "why low"},
		{"high", 1, 2, "why high"},
		{"gone", 1, math.Inf(1), "why gone"},
		{"fine", 0, 0, "why fine"},
	}}
	got := bandFailures(e, map[string]float64{"low": 0.5, "high": 2.25, "fine": 0})
	want := []string{
		"x1: low = 0.5, want [1, 2]: why low",
		"x1: high = 2.25, want [1, 2]: why high",
		"x1: gone missing, want ≥ 1: why gone",
	}
	if !slices.Equal(got, want) {
		t.Errorf("failures:\n%s\nwant:\n%s", strings.Join(got, "\n"), strings.Join(want, "\n"))
	}
}

// EXPERIMENTS.md holds the claims table between claimsBegin and claimsEnd.
const (
	experimentsMD = "../../EXPERIMENTS.md"
	claimsBegin   = "<!-- claims table: rendered from the internal/experiments registry and testdata/json; go test ./internal/experiments -run TestGolden -update rewrites it -->\n"
	claimsEnd     = "<!-- end of claims table -->"
)

// claimsMD returns EXPERIMENTS.md as it is and as it would be with its
// claims table rendered afresh from the registry and the checked-in
// documents: one row per band, with the value measured.
func claimsMD() (have, want string, err error) {
	data, err := os.ReadFile(experimentsMD)
	if err != nil {
		return "", "", err
	}
	before, rest, ok := strings.Cut(string(data), claimsBegin)
	_, after, ok2 := strings.Cut(rest, claimsEnd)
	if !ok || !ok2 {
		return "", "", fmt.Errorf("%s: no claims table markers", experimentsMD)
	}
	cell := strings.NewReplacer("|", `\|`).Replace
	var b strings.Builder
	b.WriteString(before + claimsBegin + "| Id | Paper claim | Metric | Band | Measured | What the band holds |\n|---|---|---|---|---|---|\n")
	for i := range registry {
		e := &registry[i]
		doc, err := readDoc(e.id)
		if err != nil {
			return "", "", err
		}
		id, claim := strings.ToUpper(e.id), cell(e.claim)
		for _, bd := range e.bands {
			measured := "missing"
			if v, ok := doc.Metrics[bd.metric]; ok {
				measured = num(v)
			}
			fmt.Fprintf(&b, "| %s | %s | `%s` | %v | %s | %s |\n", id, claim, bd.metric, bd, measured, cell(bd.why))
			id, claim = "", ""
		}
	}
	return string(data), b.String() + claimsEnd + after, nil
}
