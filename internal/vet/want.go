package vet

import (
	"fmt"
	"regexp"
	"strconv"
	"strings"
)

// wantRE matches expectation comments in fixture files:
//
//	x, _ := f.LastPage() // want "length discarded"
//	bad()                // want "first finding" "second finding"
//
// Each quoted string is a regexp that must match the "analyzer: message"
// text of some diagnostic reported on that line.
var wantRE = regexp.MustCompile(`"((?:[^"\\]|\\.)*)"`)

// CheckWant compares the diagnostics produced for pkg against the package's
// `// want` comments and returns a list of discrepancies: wants nothing
// matched, and diagnostics nothing expected. An empty result means the
// fixture behaved exactly as annotated.
func CheckWant(pkg *Package, diags []Diagnostic) []string {
	type want struct {
		re      *regexp.Regexp
		matched bool
	}
	wants := map[allowKey][]*want{}
	var problems []string
	for _, f := range pkg.Files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				text, ok := strings.CutPrefix(strings.TrimSpace(strings.TrimPrefix(c.Text, "//")), "want ")
				if !ok {
					continue
				}
				pos := fset.Position(c.Pos())
				for _, m := range wantRE.FindAllStringSubmatch(text, -1) {
					pat, err := strconv.Unquote(`"` + m[1] + `"`)
					if err != nil {
						problems = append(problems, fmt.Sprintf("%s: bad want string %q", pos, m[1]))
						continue
					}
					re, err := regexp.Compile(pat)
					if err != nil {
						problems = append(problems, fmt.Sprintf("%s: bad want regexp: %v", pos, err))
						continue
					}
					key := allowKey{pos.Filename, pos.Line}
					wants[key] = append(wants[key], &want{re: re})
				}
			}
		}
	}
	for _, d := range diags {
		key := allowKey{d.Pos.Filename, d.Pos.Line}
		text := d.Analyzer + ": " + d.Message
		matched := false
		for _, w := range wants[key] {
			if !w.matched && w.re.MatchString(text) {
				w.matched = true
				matched = true
				break
			}
		}
		if !matched {
			problems = append(problems, fmt.Sprintf("unexpected diagnostic: %s", d))
		}
	}
	for key, ws := range wants {
		for _, w := range ws {
			if !w.matched {
				problems = append(problems, fmt.Sprintf("%s:%d: want %q matched nothing", key.file, key.line, w.re))
			}
		}
	}
	return problems
}
