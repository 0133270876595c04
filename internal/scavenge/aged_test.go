package scavenge

import (
	"bytes"
	"fmt"
	"testing"

	"altoos/internal/dir"
	"altoos/internal/disk"
	"altoos/internal/file"
	"altoos/internal/sim"
)

// agedPack builds a Diablo31 pack aged by a seeded mix of creates, deletes,
// more creates into the holes and truncations, so its free space is
// fragmented and its files scattered, and returns the pack's image. Every
// file is scale times as long as at scale 1; the file count, the names and
// the random draws do not depend on scale.
func agedPack(tb testing.TB, seed uint64, scale int) []byte {
	tb.Helper()
	d, err := disk.NewDrive(disk.Diablo31(), 1, nil)
	if err != nil {
		tb.Fatal(err)
	}
	fs, err := file.Format(d)
	if err != nil {
		tb.Fatal(err)
	}
	root, err := dir.InitRoot(fs)
	if err != nil {
		tb.Fatal(err)
	}
	r := sim.NewRand(seed)
	var files []*file.File
	var names []string
	serial := 0
	create := func() {
		serial++
		name := fmt.Sprintf("aged-%d", serial)
		f, err := fs.Create(name)
		if err != nil {
			tb.Fatal(err)
		}
		last := scale * (1 + r.Intn(6))
		tail := 1 + r.Intn(disk.PageBytes-1)
		for pn := 1; pn <= last; pn++ {
			p := pageOf(disk.Word(serial*1000 + pn))
			n := disk.PageBytes
			if pn == last {
				n = tail
			}
			if err := f.WritePage(disk.Word(pn), &p, n); err != nil {
				tb.Fatal(err)
			}
		}
		if err := f.Sync(); err != nil {
			tb.Fatal(err)
		}
		if err := root.Insert(name, f.FN()); err != nil {
			tb.Fatal(err)
		}
		files, names = append(files, f), append(names, name)
	}
	for i := 0; i < 48; i++ {
		create()
	}
	for i := 0; i < 16; i++ {
		k := r.Intn(len(files))
		if err := files[k].Delete(); err != nil {
			tb.Fatal(err)
		}
		if err := root.Remove(names[k]); err != nil {
			tb.Fatal(err)
		}
		files = append(files[:k], files[k+1:]...)
		names = append(names[:k], names[k+1:]...)
	}
	for i := 0; i < 16; i++ {
		create()
	}
	for i := 0; i < 8; i++ {
		f := files[r.Intn(len(files))]
		last, _ := f.LastPage()
		keep := 1 + r.Intn(6)
		n := r.Intn(disk.PageBytes)
		if int(last) > scale*keep {
			if err := f.Truncate(disk.Word(scale*keep), n); err != nil {
				tb.Fatal(err)
			}
		}
	}
	if err := fs.Flush(); err != nil {
		tb.Fatal(err)
	}
	var img bytes.Buffer
	if err := d.SaveImage(&img); err != nil {
		tb.Fatal(err)
	}
	return img.Bytes()
}

// loadPack returns a fresh drive holding image.
func loadPack(tb testing.TB, image []byte) *disk.Drive {
	tb.Helper()
	d, err := disk.LoadImage(bytes.NewReader(image), nil)
	if err != nil {
		tb.Fatal(err)
	}
	return d
}

// damage hurts the pack the way the pack-churn benchmark does before each
// scavenge: both link words of n live data pages flipped, and n free
// sectors given garbage labels. Nothing it does loses data.
func damage(d *disk.Drive, r *sim.Rand, n int) {
	var live, free []disk.VDA
	for a := 0; a < d.Geometry().NSectors(); a++ {
		w, _ := d.PeekLabel(disk.VDA(a))
		l := disk.LabelFromWords(w)
		switch {
		case disk.IsFreeLabel(w):
			free = append(free, disk.VDA(a))
		case disk.InUse(w) && !l.FID.IsDirectory() && l.FID >= disk.FirstUserFID && l.PageNum >= 1:
			live = append(live, disk.VDA(a))
		}
	}
	for i := 0; i < n; i++ {
		a := live[r.Intn(len(live))]
		w, _ := d.PeekLabel(a)
		w[5] ^= r.Word() | 1
		w[6] ^= r.Word() | 1
		d.ZapLabel(a, w)
		d.CorruptLabel(free[r.Intn(len(free))], r)
	}
}
