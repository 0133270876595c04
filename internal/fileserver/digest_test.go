package fileserver

import (
	"fmt"
	"reflect"
	"strings"
	"testing"

	"altoos/internal/dir"
	"altoos/internal/disk"
)

// TestDigestTableCarriesLongNames lists files under names that need more
// than the one-byte length a digest record once had, and asks for the table
// over the wire. A leader name stops at 78 bytes, but a directory entry's
// name runs to 498, and the table lists directory names. A one-byte length
// wrapped at 256, so the table parsed as truncated and every peer's audit of
// the replica failed.
func TestDigestTableCarriesLongNames(t *testing.T) {
	_, srv, clients, _ := fixture(t, 1)
	c := clients[0]
	root, err := dir.OpenRoot(srv.fs)
	if err != nil {
		t.Fatal(err)
	}
	for _, n := range []int{1, 254, 255, 300, 498} {
		f, err := srv.fs.Create(fmt.Sprintf("long%d", n))
		if err != nil {
			t.Fatal(err)
		}
		if err := root.Insert(strings.Repeat("n", n-1)+"!", f.FN()); err != nil {
			t.Fatalf("insert %d-byte name: %v", n, err)
		}
		var page [disk.PageWords]disk.Word
		if err := f.WritePage(1, &page, n%disk.PageBytes); err != nil {
			t.Fatal(err)
		}
		if err := f.Sync(); err != nil {
			t.Fatal(err)
		}
	}
	if err := c.Digests(); err != nil {
		t.Fatal(err)
	}
	pump(t, srv, clients)
	table, err := c.Result()
	if err != nil {
		t.Fatal(err)
	}
	got, err := ParseDigests(table)
	if err != nil {
		t.Fatalf("ParseDigests: %v", err)
	}
	want, err := DigestTable(srv.fs)
	if err != nil {
		t.Fatal(err)
	}
	for i := range want {
		want[i].Written = want[i].Written.Truncate(1e6) // ms on the wire
	}
	if len(got) != 5 || !reflect.DeepEqual(got, want) {
		t.Fatalf("parsed %d digests, want the server's %d: %+v", len(got), len(want), got)
	}
}

// TestShortNameDigestsKeepTheirLayout pins the record layout for names of
// 0-254 bytes: one length byte, as before the long-name escape, so digest
// traffic for such names is unchanged on the wire.
func TestShortNameDigestsKeepTheirLayout(t *testing.T) {
	d := Digest{Name: strings.Repeat("x", 254), Size: 0x01020304, CRC: 0xBEEF, Clean: true}
	rec := appendDigest(nil, d)
	if len(rec) != 1+254+11 || rec[0] != 254 {
		t.Fatalf("254-byte name: %d-byte record led by %d, want %d led by 254", len(rec), rec[0], 1+254+11)
	}
	d.Name += "y"
	if rec = appendDigest(nil, d); len(rec) != 3+255+11 || rec[0] != longName || rec[1] != 0 || rec[2] != 255 {
		t.Fatalf("255-byte name: record header % x, want ff 00 ff", rec[:3])
	}
}

// digestRig is a server whose pack holds the given number of two-page
// files, the second page partial.
func digestRig(tb testing.TB, files int) *fuzzRig {
	tb.Helper()
	rg := newFuzzRig(tb)
	words := make([]disk.Word, disk.PageWords+10)
	for i := 0; i < files; i++ {
		words[0] = disk.Word(i)
		if err := rg.srv.writeFile(fmt.Sprintf("digest%02d", i), words, 2*len(words)); err != nil {
			tb.Fatal(err)
		}
	}
	return rg
}

// TestDigestTableAllocatesPerTableNotPerFile pins DigestTable to one file
// handle for the whole table: 40 files cost the allocations 4 do.
func TestDigestTableAllocatesPerTableNotPerFile(t *testing.T) {
	allocs := map[int]float64{}
	for _, files := range []int{4, 40} {
		rg := digestRig(t, files)
		allocs[files] = testing.AllocsPerRun(10, func() {
			if digs, err := DigestTable(rg.srv.fs); err != nil || len(digs) != files {
				t.Fatalf("DigestTable: %d digests, %v; want %d", len(digs), err, files)
			}
		})
	}
	if allocs[4] != allocs[40] {
		t.Errorf("DigestTable allocates %v times for 4 files, %v for 40; want the same", allocs[4], allocs[40])
	}
}

// BenchmarkDigestTable digests a root directory of 16 two-page files: every
// file opened and every page read and folded.
func BenchmarkDigestTable(b *testing.B) {
	rg := digestRig(b, 16)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := DigestTable(rg.srv.fs); err != nil {
			b.Fatal(err)
		}
	}
}
