package vet

import (
	"path/filepath"
	"sort"
	"strings"
)

// JSONDiagnostic is the machine-readable finding shape: module-relative
// slash-separated file path, 1-based position, analyzer and message.
type JSONDiagnostic struct {
	File     string `json:"file"`
	Line     int    `json:"line"`
	Col      int    `json:"col"`
	Analyzer string `json:"analyzer"`
	Message  string `json:"message"`
}

// JSONDiagnostics converts diagnostics to the machine-readable form, sorted
// by (file, line, analyzer) — stable across runs and across worker
// schedules.
func (m *Module) JSONDiagnostics(diags []Diagnostic) []JSONDiagnostic {
	out := make([]JSONDiagnostic, 0, len(diags))
	for _, d := range diags {
		file := d.Pos.Filename
		if rel, err := filepath.Rel(m.Root, file); err == nil && !strings.HasPrefix(rel, "..") {
			file = filepath.ToSlash(rel)
		}
		out = append(out, JSONDiagnostic{
			File:     file,
			Line:     d.Pos.Line,
			Col:      d.Pos.Column,
			Analyzer: d.Analyzer,
			Message:  d.Message,
		})
	}
	sort.Slice(out, func(i, j int) bool {
		a, b := out[i], out[j]
		if a.File != b.File {
			return a.File < b.File
		}
		if a.Line != b.Line {
			return a.Line < b.Line
		}
		if a.Analyzer != b.Analyzer {
			return a.Analyzer < b.Analyzer
		}
		return a.Message < b.Message
	})
	return out
}
