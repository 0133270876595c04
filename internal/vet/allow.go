package vet

import (
	"go/token"
	"strings"
)

// allowPrefix introduces a suppression comment:
//
//	//altovet:allow <analyzer>[,<analyzer>...] <reason>
//
// The comment suppresses those analyzers' findings on its own line and on the
// line immediately below it (so it can trail the flagged statement or sit
// above it). The reason is mandatory: an allow records a human judgement —
// "the error is provably impossible", "the demo tears this page on purpose"
// — and a judgement without a justification is worthless to the next reader.
// One line may scope a single reason to several analyzers (a demo page that
// is deliberately torn may need labelcheck and errdiscard together).
//
// An allow must also earn its keep: a directive whose named analyzers all ran
// and suppressed nothing is itself reported as stale, so the escape hatch
// burns down instead of accreting.
const allowPrefix = "//altovet:allow"

type allowKey struct {
	file string
	line int
}

// A directive is one parsed allow comment, with a use counter so stale
// directives can be reported.
type directive struct {
	pos   token.Position
	names []string
	used  int
}

type allows struct {
	directives []*directive
	// byAnalyzer maps analyzer -> suppressed line -> owning directive.
	byAnalyzer map[string]map[allowKey]*directive
}

func (a *allows) allowed(d Diagnostic) bool {
	lines := a.byAnalyzer[d.Analyzer]
	if lines == nil {
		return false
	}
	dir := lines[allowKey{d.Pos.Filename, d.Pos.Line}]
	if dir == nil {
		return false
	}
	dir.used++
	return true
}

// stale reports directives that suppressed nothing even though every
// analyzer they name was part of this run. Directives naming an analyzer
// that did not run are skipped — a -run subset must not condemn suppressions
// it never exercised.
func (a *allows) stale(ran []*Analyzer) []Diagnostic {
	ranNames := map[string]bool{}
	for _, an := range ran {
		ranNames[an.Name] = true
	}
	var out []Diagnostic
	for _, dir := range a.directives {
		if dir.used > 0 {
			continue
		}
		all := true
		for _, name := range dir.names {
			if !ranNames[name] {
				all = false
				break
			}
		}
		if !all {
			continue
		}
		out = append(out, Diagnostic{
			Pos:      dir.pos,
			Analyzer: "allow",
			Message: "allow directive for " + strings.Join(dir.names, ",") +
				" suppresses nothing; it is stale — delete it",
		})
	}
	return out
}

// collectAllows scans a package's comments for allow directives. Malformed
// directives are returned as diagnostics of the pseudo-analyzer "allow" so
// that a typo cannot silently disable checking.
func collectAllows(pkg *Package) (*allows, []Diagnostic) {
	valid := analyzerNames()
	out := &allows{byAnalyzer: map[string]map[allowKey]*directive{}}
	var bad []Diagnostic
	report := func(pos token.Pos, msg string) {
		bad = append(bad, Diagnostic{
			Pos:      fset.Position(pos),
			Analyzer: "allow",
			Message:  msg,
		})
	}
	for _, f := range pkg.Files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				rest, ok := strings.CutPrefix(c.Text, allowPrefix)
				if !ok {
					continue
				}
				fields := strings.Fields(rest)
				if len(fields) == 0 {
					report(c.Pos(), "allow directive names no analyzer")
					continue
				}
				names := strings.Split(fields[0], ",")
				unknown := ""
				for _, name := range names {
					if !valid[name] {
						unknown = name
						break
					}
				}
				if unknown != "" {
					report(c.Pos(), "allow directive names unknown analyzer "+unknown)
					continue
				}
				if len(fields) < 2 {
					report(c.Pos(), "allow directive for "+fields[0]+" gives no reason")
					continue
				}
				pos := fset.Position(c.Pos())
				dir := &directive{pos: pos, names: names}
				out.directives = append(out.directives, dir)
				for _, name := range names {
					lines := out.byAnalyzer[name]
					if lines == nil {
						lines = map[allowKey]*directive{}
						out.byAnalyzer[name] = lines
					}
					lines[allowKey{pos.Filename, pos.Line}] = dir
					lines[allowKey{pos.Filename, pos.Line + 1}] = dir
				}
			}
		}
	}
	return out, bad
}
