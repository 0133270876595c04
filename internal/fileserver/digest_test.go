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
