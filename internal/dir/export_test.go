package dir

import (
	"fmt"

	"altoos/internal/disk"
	"altoos/internal/file"
)

// This file keeps the decode-then-search implementation the entry scanner
// replaced, as a test oracle: loadOracle is that Load verbatim, and the
// other oracles are the lookups and walks that were built on it. The
// equivalence tests run them on a twin pack and demand identical results
// and identical disk traffic.

func (d *Directory) loadOracle() ([]Entry, error) {
	var entries []Entry
	var buf [disk.PageWords]disk.Word
	lastPN := d.f.LastPN()
	for pn := disk.Word(1); pn <= lastPN; pn++ {
		n, err := d.f.ReadPage(pn, &buf)
		if err != nil {
			return nil, err
		}
		words := (n + 1) / 2
		i := 0
		for i < words {
			switch buf[i] {
			case endMark:
				return entries, nil
			case padMark:
				i = words // next page
				continue
			}
			length := int(buf[i])
			if length < entryFixed+1 || i+length > words {
				return entries, fmt.Errorf("%w: entry length %d at page %d word %d", ErrFormat, length, pn, i)
			}
			nameLen := int(buf[i+5])
			if nameLen > 2*(length-entryFixed) {
				return entries, fmt.Errorf("%w: name length %d in %d-word entry", ErrFormat, nameLen, length)
			}
			var nb [maxName + 2]byte // stack scratch: one allocation per name, not two
			for j := 0; j < nameLen; j++ {
				w := buf[i+entryFixed+j/2]
				if j%2 == 0 {
					nb[j] = byte(w >> 8)
				} else {
					nb[j] = byte(w)
				}
			}
			entries = append(entries, Entry{
				Name: string(nb[:nameLen]),
				FN: file.FN{
					FV: disk.FV{
						FID:     disk.FID(buf[i+1])<<16 | disk.FID(buf[i+2]),
						Version: buf[i+3],
					},
					Leader: disk.VDA(buf[i+4]),
				},
			})
			i += length
		}
	}
	return entries, nil
}

func (d *Directory) lookupOracle(name string) (file.FN, error) {
	entries, err := d.loadOracle()
	if err != nil {
		return file.FN{}, err
	}
	for _, e := range entries {
		if e.Name == name {
			return e.FN, nil
		}
	}
	return file.FN{}, fmt.Errorf("%w: %q", ErrNotFound, name)
}

func (d *Directory) lookupFVOracle(fv disk.FV) (file.FN, error) {
	entries, err := d.loadOracle()
	if err != nil {
		return file.FN{}, err
	}
	for _, e := range entries {
		if e.FN.FV == fv {
			return e.FN, nil
		}
	}
	return file.FN{}, fmt.Errorf("%w: %v", ErrNotFound, fv)
}

func walkOracle(fs *file.FS, start file.FN, visit func(*Directory) error) error {
	seen := map[disk.FV]bool{}
	queue := []file.FN{start}
	for len(queue) > 0 {
		fn := queue[0]
		queue = queue[1:]
		if seen[fn.FV] {
			continue
		}
		seen[fn.FV] = true
		d, err := Open(fs, fn)
		if err != nil {
			continue
		}
		if err := visit(d); err != nil {
			return err
		}
		entries, err := d.loadOracle()
		if err != nil {
			continue
		}
		for _, e := range entries {
			if e.FN.FV.FID.IsDirectory() && !seen[e.FN.FV] {
				queue = append(queue, e.FN)
			}
		}
	}
	return nil
}

func resolveFVOracle(fs *file.FS, fv disk.FV) (disk.VDA, error) {
	var found *file.FN
	err := walkOracle(fs, fs.RootDir(), func(d *Directory) error {
		if found != nil {
			return nil
		}
		if fn, err := d.lookupFVOracle(fv); err == nil {
			found = &fn
		}
		return nil
	})
	if err != nil {
		return 0, err
	}
	if found == nil {
		return 0, fmt.Errorf("%w: %v in any directory", ErrNotFound, fv)
	}
	return found.Leader, nil
}

func resolveNameOracle(fs *file.FS, name string) (file.FN, error) {
	var found *file.FN
	err := walkOracle(fs, fs.RootDir(), func(d *Directory) error {
		if found != nil {
			return nil
		}
		if fn, err := d.lookupOracle(name); err == nil {
			found = &fn
		}
		return nil
	})
	if err != nil {
		return file.FN{}, err
	}
	if found == nil {
		return file.FN{}, fmt.Errorf("%w: %q in any directory", ErrNotFound, name)
	}
	return *found, nil
}
