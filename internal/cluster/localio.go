package cluster

// Local file I/O for heals and offline verification: the same byte layout
// the file server uses on the wire (big-endian bytes packed two to a word,
// last page always partial), but driven through the local FS — a heal is an
// ordinary label-checked store on the replica's own clock, which is also
// what refreshes the sector checksums rot left stale.

import (
	"errors"
	"fmt"

	"altoos/internal/dir"
	"altoos/internal/disk"
	"altoos/internal/ether"
	"altoos/internal/file"
)

// localIO is the handle storage StoreLocal and ReadLocal open through: a
// walker to resolve names, the root directory and one file handle, each
// re-primed per call (see file.File). A replica keeps one for its heals;
// the package functions take a fresh one.
type localIO struct {
	walk dir.Walker
	root dir.Directory
	f    file.File
}

// StoreLocal writes data under name on fs, creating the file and its root
// directory entry if needed, truncating leftovers if the file shrank.
func StoreLocal(fs *file.FS, name string, data []byte) error {
	return new(localIO).store(fs, name, data)
}

// ReadLocal reads the whole named file off fs, the inverse of StoreLocal.
func ReadLocal(fs *file.FS, name string) ([]byte, error) {
	return new(localIO).read(fs, name)
}

func (l *localIO) store(fs *file.FS, name string, data []byte) error {
	root := &l.root
	if err := dir.OpenInto(fs, root, fs.RootDir()); err != nil {
		return errors.New("no root directory")
	}
	var f *file.File
	if fn, err := root.Lookup(name); err == nil {
		f = &l.f
		if err := fs.OpenInto(f, fn); err != nil {
			return fmt.Errorf("open %q failed", name)
		}
	} else {
		if f, err = fs.Create(name); err != nil {
			return errors.New("disk full")
		}
		if err := root.Insert(name, f.FN()); err != nil {
			return errors.New("directory full")
		}
	}
	lastLen := len(data) % disk.PageBytes
	lastPN := disk.Word((len(data)/disk.PageBytes + 1) & 0xFFFF)
	if f.LastPN() > lastPN {
		if err := f.Truncate(lastPN, lastLen); err != nil {
			return fmt.Errorf("truncate %q failed", name)
		}
	}
	var buf [disk.PageWords]disk.Word
	for pn := disk.Word(1); pn <= lastPN; pn++ {
		off := (int(pn) - 1) * disk.PageBytes
		page := data[min(off, len(data)):min(off+disk.PageBytes, len(data))]
		clear(buf[ether.PackBytes(buf[:], page):])
		length := disk.PageBytes
		if pn == lastPN {
			length = lastLen
		}
		if err := f.WritePage(pn, &buf, length); err != nil {
			return fmt.Errorf("write %q page %d failed", name, pn)
		}
	}
	if err := f.Sync(); err != nil {
		return fmt.Errorf("sync %q failed", name)
	}
	if drv, ok := fs.Device().(*disk.Drive); ok {
		drv.TraceRecorder().Add(cStoreLocal, 1)
	}
	return nil
}

func (l *localIO) read(fs *file.FS, name string) ([]byte, error) {
	fn, err := l.walk.ResolveName(fs, name)
	if err != nil {
		return nil, fmt.Errorf("no such file %q", name)
	}
	f := &l.f
	if err := fs.OpenInto(f, fn); err != nil {
		return nil, fmt.Errorf("open %q failed", name)
	}
	lastPN, lastLen := f.LastPage()
	out := make([]byte, 0, (int(lastPN)-1)*disk.PageBytes+lastLen)
	var buf [disk.PageWords]disk.Word
	for pn := disk.Word(1); pn <= lastPN; pn++ {
		n, err := f.ReadPage(pn, &buf)
		if err != nil {
			return nil, fmt.Errorf("read %q page %d failed", name, pn)
		}
		out = ether.AppendBytes(out, buf[:], n)
	}
	if drv, ok := fs.Device().(*disk.Drive); ok {
		drv.TraceRecorder().Add(cReadLocal, 1)
	}
	return out, nil
}
