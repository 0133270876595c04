package dir

import (
	"errors"
	"fmt"
	"reflect"
	"testing"

	"altoos/internal/disk"
	"altoos/internal/file"
	"altoos/internal/sim"
)

// Fuzz input layout: byte 0 picks the page count (1 to 4), bytes 1-2 the
// last page's byte length, and the rest are the page words, big-endian,
// page after page, zero-filled past the end of the input.
const fuzzMaxPages = 4

// fuzzInput encodes page images in the fuzz input layout.
func fuzzInput(lastLen int, pages ...[disk.PageWords]disk.Word) []byte {
	b := []byte{byte(len(pages) - 1), byte(lastLen >> 8), byte(lastLen)}
	for _, p := range pages {
		for _, w := range p {
			b = append(b, byte(w>>8), byte(w))
		}
	}
	return b
}

// fuzzDirectory writes the page images data describes into a fresh
// directory file, label-consistent, so only the contents are arbitrary.
func fuzzDirectory(t *testing.T, data []byte) *Directory {
	t.Helper()
	drv, err := disk.NewDrive(disk.Diablo31(), 1, nil)
	if err != nil {
		t.Fatal(err)
	}
	fs, err := file.Format(drv)
	if err != nil {
		t.Fatal(err)
	}
	d, err := Create(fs, nil, "Fuzz.")
	if err != nil {
		t.Fatal(err)
	}
	var pages, lastLen int
	if len(data) >= 3 {
		pages = 1 + int(data[0])%fuzzMaxPages
		lastLen = (int(data[1])<<8 | int(data[2])) % disk.PageBytes
		data = data[3:]
	} else {
		pages, data = 1, nil
	}
	for pn := 1; pn <= pages; pn++ {
		var buf [disk.PageWords]disk.Word
		for i := range buf {
			if len(data) >= 2 {
				buf[i] = disk.Word(data[0])<<8 | disk.Word(data[1])
				data = data[2:]
			}
		}
		n := disk.PageBytes
		if pn == pages {
			n = lastLen
		}
		if err := d.File().WritePage(disk.Word(pn), &buf, n); err != nil {
			t.Fatal(err)
		}
	}
	return d
}

// fuzzSeeds are well-formed, padded, damaged and random directory images.
func fuzzSeeds() [][]byte {
	page := func(entries ...Entry) [disk.PageWords]disk.Word {
		var p [disk.PageWords]disk.Word
		used := 0
		for _, e := range entries {
			used = putEntry(&p, used, e)
		}
		return p
	}
	fn := func(fid disk.FID) file.FN { return file.FN{FV: disk.FV{FID: fid, Version: 1}, Leader: disk.VDA(fid)} }
	one := page(Entry{"a", fn(0x100)}, Entry{"bc.", fn(0x101)}, Entry{"a", fn(0x102)})
	long := page(Entry{string(make([]byte, maxName)), fn(0x103)})
	padded := one
	padded[3*entryFixed+3] = padMark
	badLen := one
	badLen[0] = entryFixed
	badName := one
	badName[5] = 9
	noEnd := page()
	for i := 0; i+10 <= disk.PageWords; i += 10 {
		putEntry(&noEnd, i, Entry{fmt.Sprintf("n%07d", i), fn(disk.DirFIDBit | disk.FID(i))})
	}
	r := sim.NewRand(7)
	var noise [disk.PageWords]disk.Word
	for i := range noise {
		noise[i] = r.Word() % 300
	}
	return [][]byte{
		nil,
		fuzzInput(40, one),
		fuzzInput(2*(3*entryFixed+3)+2, one),
		fuzzInput(disk.PageBytes-2, long),
		fuzzInput(40, padded, one),
		fuzzInput(40, badLen),
		fuzzInput(40, one, badName),
		fuzzInput(20, one),
		fuzzInput(300, noEnd, noEnd, one),
		fuzzInput(100, noise, one),
		// Inputs the fuzzer found. An appending Insert used to or its name
		// into the words after the end mark, garbling it:
		[]byte("000\x00\x00000000000000"),
		// and an entry with an empty name used to be written one word too
		// short for any reader to accept:
		[]byte("00+\x00\a00000000\x00\x0100\x00\b00000000\x00\x030000\x00\a"),
	}
}

// FuzzDirectoryPages feeds arbitrary page images to the directory readers:
// none may panic, Lookup must agree with Load (and with the decode-then-
// search oracle) on every name, both must report damage alike, and Insert
// must cope with whatever it finds.
func FuzzDirectoryPages(f *testing.F) {
	for _, s := range fuzzSeeds() {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		d := fuzzDirectory(t, data)
		entries, err := d.Load()
		want, werr := d.loadOracle()
		if !reflect.DeepEqual(entries, want) || errText(err) != errText(werr) {
			t.Fatalf("Load = %q, %v; oracle %q, %v", entries, err, want, werr)
		}
		probes := []string{"a", "nonesuch"}
		for _, e := range entries {
			probes = append(probes, e.Name)
		}
		for _, name := range probes {
			got, lerr := d.Lookup(name)
			if errors.Is(err, ErrFormat) != errors.Is(lerr, ErrFormat) {
				t.Fatalf("Lookup(%q) error %v, Load error %v", name, lerr, err)
			}
			if err != nil {
				continue
			}
			var first *file.FN
			for i := range entries {
				if entries[i].Name == name {
					first = &entries[i].FN
					break
				}
			}
			switch {
			case first == nil && !errors.Is(lerr, ErrNotFound):
				t.Fatalf("Lookup(%q) = %v, %v; want ErrNotFound", name, got, lerr)
			case first != nil && (lerr != nil || got != *first):
				t.Fatalf("Lookup(%q) = %v, %v; want the first match %v", name, got, lerr, *first)
			}
		}
		for _, e := range entries {
			if _, ferr := d.LookupFV(e.FN.FV); (ferr == nil) != (err == nil) {
				t.Fatalf("LookupFV(%v): %v with Load error %v", e.FN.FV, ferr, err)
			}
		}
		if _, ferr := d.LookupFV(disk.FV{FID: 0x7777, Version: 3}); errors.Is(err, ErrFormat) != errors.Is(ferr, ErrFormat) {
			t.Fatalf("LookupFV error %v, Load error %v", ferr, err)
		}
		ierr := d.Insert("fuzzed.", file.FN{FV: disk.FV{FID: 0x200, Version: 1}, Leader: 9})
		if errors.Is(err, ErrFormat) != errors.Is(ierr, ErrFormat) && !errors.Is(ierr, ErrExists) {
			t.Fatalf("Insert error %v, Load error %v", ierr, err)
		}
		if ierr == nil {
			if _, err := d.Lookup("fuzzed."); err != nil {
				t.Fatalf("Lookup after Insert: %v", err)
			}
		}
	})
}
