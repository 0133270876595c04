package cluster

import (
	"bytes"
	"fmt"
	"testing"

	"altoos/internal/dir"
	"altoos/internal/disk"
	"altoos/internal/file"
	"altoos/internal/sim"
)

// localFS formats a small pack with an empty root directory.
func localFS(t testing.TB) *file.FS {
	t.Helper()
	d, err := disk.NewDrive(testGeometry(), 1, sim.NewClock())
	if err != nil {
		t.Fatal(err)
	}
	fs, err := file.Format(d)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := dir.InitRoot(fs); err != nil {
		t.Fatal(err)
	}
	return fs
}

// refFillPage is StoreLocal's byte loop before the codec: the pn-th
// (1-based) page of data, big-endian pairs, zero-padded. The test holds the
// codec to it.
func refFillPage(buf *[disk.PageWords]disk.Word, data []byte, pn int) {
	off := (pn - 1) * disk.PageBytes
	for i := range buf {
		var w disk.Word
		if off < len(data) {
			w = disk.Word(data[off]) << 8
		}
		if off+1 < len(data) {
			w |= disk.Word(data[off+1])
		}
		buf[i] = w
		off += 2
	}
}

// refReadLocal is ReadLocal's byte loop before the codec.
func refReadLocal(t *testing.T, fs *file.FS, name string) []byte {
	t.Helper()
	fn, err := dir.ResolveName(fs, name)
	if err != nil {
		t.Fatal(err)
	}
	f, err := fs.Open(fn)
	if err != nil {
		t.Fatal(err)
	}
	var out []byte
	var buf [disk.PageWords]disk.Word
	for pn := disk.Word(1); pn <= f.LastPN(); pn++ {
		n, err := f.ReadPage(pn, &buf)
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < n; i++ {
			w := buf[i/2]
			if i%2 == 0 {
				out = append(out, byte(w>>8))
			} else {
				out = append(out, byte(w))
			}
		}
	}
	return out
}

// TestLocalIOMatchesBytePath stores page-boundary and seeded lengths with
// StoreLocal, over a file that shrinks and grows between stores: every page
// must be the byte loop's, and ReadLocal must return the stored bytes, as
// the byte loop reads them.
func TestLocalIOMatchesBytePath(t *testing.T) {
	fs := localFS(t)
	rnd := sim.NewRand(18)
	lengths := []int{0, 1, 2, 511, 512, 513, 1023, 1024, 1025, 32*disk.PageBytes - 1, 3}
	for i := 0; i < 8; i++ {
		lengths = append(lengths, rnd.Intn(6*disk.PageBytes)|1, rnd.Intn(6*disk.PageBytes)&^1)
	}
	for _, n := range lengths {
		data := make([]byte, n)
		for i := range data {
			data[i] = byte(rnd.Intn(256))
		}
		if err := StoreLocal(fs, "local", data); err != nil {
			t.Fatal(err)
		}
		fn, err := dir.ResolveName(fs, "local")
		if err != nil {
			t.Fatal(err)
		}
		f, err := fs.Open(fn)
		if err != nil {
			t.Fatal(err)
		}
		lastPN := disk.Word(n/disk.PageBytes + 1)
		if f.LastPN() != lastPN {
			t.Fatalf("%d bytes: last page %d, want %d", n, f.LastPN(), lastPN)
		}
		var got, want [disk.PageWords]disk.Word
		for pn := disk.Word(1); pn <= lastPN; pn++ {
			if _, err := f.ReadPage(pn, &got); err != nil {
				t.Fatal(err)
			}
			if refFillPage(&want, data, int(pn)); got != want {
				t.Fatalf("%d bytes: page %d differs from the byte loop's", n, pn)
			}
		}
		back, err := ReadLocal(fs, "local")
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(back, data) || !bytes.Equal(back, refReadLocal(t, fs, "local")) {
			t.Fatalf("%d bytes: ReadLocal differs from the stored bytes", n)
		}
	}
}

// TestReadLocalAllocatesOncePerCall pins ReadLocal's own cost: beyond what
// looking the file up and reading its pages into one buffer allocates in the
// directory and file layers, the result is the one allocation, sized once
// whatever the file's length.
func TestReadLocalAllocatesOncePerCall(t *testing.T) {
	fs := localFS(t)
	for _, pages := range []int{1, 32} {
		name := fmt.Sprintf("pages%d", pages)
		if err := StoreLocal(fs, name, make([]byte, pages*disk.PageBytes-1)); err != nil {
			t.Fatal(err)
		}
		walk := testing.AllocsPerRun(20, func() {
			fn, err := dir.ResolveName(fs, name)
			if err != nil {
				t.Fatal(err)
			}
			f, err := fs.Open(fn)
			if err != nil {
				t.Fatal(err)
			}
			var buf [disk.PageWords]disk.Word
			for pn := disk.Word(1); pn <= f.LastPN(); pn++ {
				if _, err := f.ReadPage(pn, &buf); err != nil {
					t.Fatal(err)
				}
			}
		})
		read := testing.AllocsPerRun(20, func() {
			if _, err := ReadLocal(fs, name); err != nil {
				t.Fatal(err)
			}
		})
		if read != walk+1 {
			t.Errorf("%d pages: ReadLocal allocates %v times, the walk alone %v; want one more", pages, read, walk)
		}
	}
}
