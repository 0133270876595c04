package main

import (
	"bytes"
	"encoding/json"
	"testing"

	"altoos/internal/crashpoint"
)

// TestDefaultWorkloadSweepRecovers runs exactly what `altocrash -points 16
// -torn` would: the default workload, sampled points, torn writes on. Every
// point must recover — this is the same property the Makefile smoke sweep
// gates CI on.
func TestDefaultWorkloadSweepRecovers(t *testing.T) {
	w, ok := crashpoint.Lookup("journaled-insert")
	if !ok {
		t.Fatal("default workload journaled-insert not registered")
	}
	res, err := crashpoint.Explore(w, crashpoint.Options{Points: 16, Workers: 4, Torn: true})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Consistent() {
		b, _ := res.JSON()
		t.Fatalf("sweep found unrecovered crash points:\n%s", b)
	}
}

// TestReportJSONIsStableAndParseable pins the report format the CI gate and
// other -json consumers read: valid JSON, byte-identical across runs, with
// the fields the docs promise.
func TestReportJSONIsStableAndParseable(t *testing.T) {
	w, _ := crashpoint.Lookup("dir-insert")
	run := func() []byte {
		res, err := crashpoint.Explore(w, crashpoint.Options{Points: 8, Workers: 4, Torn: true})
		if err != nil {
			t.Fatal(err)
		}
		b, err := res.JSON()
		if err != nil {
			t.Fatal(err)
		}
		return b
	}
	b1, b2 := run(), run()
	if !bytes.Equal(b1, b2) {
		t.Fatal("two identical sweeps produced different report bytes")
	}
	var rep struct {
		Workload string `json:"workload"`
		Writes   int64  `json:"writes"`
		Clean    int    `json:"clean"`
		Outcomes []struct {
			Point      int  `json:"point"`
			Consistent bool `json:"consistent"`
		} `json:"outcomes"`
	}
	if err := json.Unmarshal(b1, &rep); err != nil {
		t.Fatalf("report is not valid JSON: %v", err)
	}
	if rep.Workload != "dir-insert" || rep.Writes == 0 || len(rep.Outcomes) == 0 {
		t.Fatalf("report missing promised fields: %s", b1)
	}
	if rep.Clean != len(rep.Outcomes) {
		t.Fatalf("clean = %d of %d outcomes", rep.Clean, len(rep.Outcomes))
	}
}
