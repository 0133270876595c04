// Package dir implements directories: files containing (string, full name)
// pairs (§3.4). Nothing about a directory is special to the file system — it
// is an ordinary file whose identifier lies in the reserved directory range —
// so directories may form a tree or an arbitrary directed graph, a file may
// appear in any number of directories, and losing a directory loses no
// files, only the names that pointed at them.
//
// Directory entries are deliberately "taken less seriously" than leader
// pages: the leader name is the absolute self-identification, directory
// entries are the lookup convenience. The Scavenger re-creates missing
// entries from leader names.
package dir

import (
	"errors"
	"fmt"
	"slices"
	"strings"

	"altoos/internal/disk"
	"altoos/internal/file"
)

// Errors returned by directory operations.
var (
	// ErrNotFound reports a name or FV absent from the directory.
	ErrNotFound = errors.New("dir: not found")
	// ErrExists reports an Insert of a name already present.
	ErrExists = errors.New("dir: name already present")
	// ErrFormat reports an unparseable directory page (damage the Scavenger
	// should look at).
	ErrFormat = errors.New("dir: malformed directory")
	// ErrNotDirectory reports an attempt to open a non-directory file as a
	// directory.
	ErrNotDirectory = errors.New("dir: not a directory file")
)

// Entry is one (string name, full name) pair.
type Entry struct {
	Name string
	FN   file.FN
}

// Directory is an open directory file.
type Directory struct {
	fs *file.FS
	f  *file.File

	// page holds the directory page being scanned. It lives in the handle
	// because the file layer keeps the caller's buffer in its operation
	// scratch, which would move a stack buffer to the heap on every read.
	page [disk.PageWords]disk.Word
}

// Entry serialization, in words:
//
//	0    total entry length in words (>= entryFixed+1)
//	1,2  FID
//	3    version
//	4    leader address (hint)
//	5    name length in bytes
//	6..  name bytes, two per word
//
// A length word of endMark ends the directory; padMark skips to the next
// page boundary so entries never straddle pages.
const (
	entryFixed = 6
	endMark    = 0
	padMark    = 0xFFFF
)

// maxName bounds directory names to what a single entry can hold.
const maxName = 2 * (disk.PageWords - entryFixed - 1)

// Open opens an existing directory by full name.
func Open(fs *file.FS, fn file.FN) (*Directory, error) {
	if !fn.FV.FID.IsDirectory() {
		return nil, fmt.Errorf("%w: %v", ErrNotDirectory, fn.FV)
	}
	f, err := fs.Open(fn)
	if err != nil {
		return nil, err
	}
	return &Directory{fs: fs, f: f}, nil
}

// OpenRoot opens the root directory recorded in the disk descriptor.
func OpenRoot(fs *file.FS) (*Directory, error) {
	return Open(fs, fs.RootDir())
}

// Create makes a new, empty directory file with the given leader name and
// enters it into parent (which may be nil for a free-floating directory).
func Create(fs *file.FS, parent *Directory, name string) (*Directory, error) {
	f, err := fs.CreateDirectoryFile(name)
	if err != nil {
		return nil, err
	}
	d := &Directory{fs: fs, f: f}
	if err := d.store(nil); err != nil {
		return nil, err
	}
	if parent != nil {
		if err := parent.Insert(name, f.FN()); err != nil {
			return nil, err
		}
	}
	return d, nil
}

// Adopt wraps an already-open directory file. The Scavenger uses it for
// files it has just verified, and for a recreated root.
func Adopt(fs *file.FS, f *file.File) *Directory {
	return &Directory{fs: fs, f: f}
}

// Clear rewrites the directory to contain no entries.
func (d *Directory) Clear() error { return d.store(nil) }

// Store replaces the directory's entire contents. The Scavenger uses it to
// write back a repaired entry list.
func (d *Directory) Store(entries []Entry) error { return d.store(entries) }

// FN returns the directory file's full name.
func (d *Directory) FN() file.FN { return d.f.FN() }

// File returns the underlying file, for the Scavenger and tools.
func (d *Directory) File() *file.File { return d.f }

// Load parses every entry. Damage is reported as ErrFormat, alongside the
// entries before it; the caller (or the Scavenger) decides what to do about
// it. The names share one backing string and the entries one slice, both
// sized from the page count, so a load makes the same few allocations
// however many entries the directory holds.
func (d *Directory) Load() ([]Entry, error) {
	var entries []Entry
	var names strings.Builder
	s := d.scan()
	for s.next() {
		if entries == nil {
			pages := int(s.lastPN)
			entries = make([]Entry, 0, pages*maxPerPage)
			names.Grow(pages * disk.PageBytes)
		}
		entries = append(entries, Entry{Name: d.entryName(s.at, &names), FN: entryFN(&d.page, s.at)})
	}
	if s.err != nil && !errors.Is(s.err, ErrFormat) {
		return nil, s.err
	}
	return entries, s.err
}

// maxPerPage bounds the entries one page can hold.
const maxPerPage = disk.PageWords / (entryFixed + 1)

// A scanner walks a directory's entries in file order without decoding
// them. It reads the pages one at a time into the directory's page buffer,
// stops at the end mark, and checks each entry's length and name length
// before yielding it, so callers may index the entry's words freely. Every
// reader of the directory goes through it: all of them read the same pages
// and report damage the same way.
type scanner struct {
	d      *Directory
	lastPN disk.Word
	pn     disk.Word // page held in d.page; 0 before the first read
	words  int       // valid words in d.page
	at     int       // word offset of the current entry, or of the end mark
	after  int       // word offset just past the current entry
	ended  bool      // stopped on an end mark, at word at of page pn
	err    error     // a read failure or ErrFormat, once next returns false
}

func (d *Directory) scan() scanner {
	return scanner{d: d, lastPN: d.f.LastPN()}
}

// next advances to the following entry, reading pages as needed. It returns
// false at the end mark, after the last page, or on an error (s.err).
func (s *scanner) next() bool {
	p := &s.d.page
	i := s.after
	for {
		if i >= s.words {
			if s.pn >= s.lastPN {
				return false
			}
			s.pn++
			*p = [disk.PageWords]disk.Word{} // Insert may write the page back
			n, err := s.d.f.ReadPage(s.pn, p)
			if err != nil {
				s.err = err
				return false
			}
			s.words, i = min((n+1)/2, disk.PageWords), 0
			continue
		}
		switch p[i] {
		case endMark:
			s.at, s.ended = i, true
			return false
		case padMark:
			i = s.words // next page
			continue
		}
		length := int(p[i])
		if length < entryFixed+1 || i+length > s.words {
			s.err = fmt.Errorf("%w: entry length %d at page %d word %d", ErrFormat, length, s.pn, i)
			return false
		}
		if nameLen := int(p[i+5]); nameLen > 2*(length-entryFixed) {
			s.err = fmt.Errorf("%w: name length %d in %d-word entry", ErrFormat, nameLen, length)
			return false
		}
		s.at, s.after = i, i+length
		return true
	}
}

// entryFN decodes the full name of the entry at word offset i.
func entryFN(p *[disk.PageWords]disk.Word, i int) file.FN {
	return file.FN{
		FV: disk.FV{
			FID:     disk.FID(p[i+1])<<16 | disk.FID(p[i+2]),
			Version: p[i+3],
		},
		Leader: disk.VDA(p[i+4]),
	}
}

// entryName appends the name of the entry at word offset i of the page
// being scanned to names and returns it as a slice of names' one string.
func (d *Directory) entryName(i int, names *strings.Builder) string {
	start := names.Len()
	for j := 0; j < int(d.page[i+5]); j++ {
		w := d.page[i+entryFixed+j/2]
		if j%2 == 0 {
			w >>= 8
		}
		names.WriteByte(byte(w))
	}
	return names.String()[start:]
}

// store rewrites the directory file to contain exactly these entries.
func (d *Directory) store(entries []Entry) error {
	pages := make([][disk.PageWords]disk.Word, 0, d.f.LastPN()+1)
	var cur [disk.PageWords]disk.Word
	used, tailUsed := 0, 0
	flush := func() {
		tailUsed = used
		if used < disk.PageWords {
			cur[used] = endMark
		}
		pages = append(pages, cur)
		cur = [disk.PageWords]disk.Word{}
		used = 0
	}
	for _, e := range entries {
		if len(e.Name) > maxName {
			return fmt.Errorf("%w: name %q too long", file.ErrBadArg, e.Name)
		}
		length := entryWords(e.Name)
		if used+length+1 > disk.PageWords { // +1 for a possible end mark
			cur[used] = padMark
			used = disk.PageWords // the pad consumes the rest of the page
			flush()
		}
		used = putEntry(&cur, used, e)
	}
	flush()

	// Write the pages: all but the last full, the last partial. When the
	// file shrinks, interior pages must be written while they are still
	// interior, then the file truncated, then the new tail written.
	n := len(pages)
	tail := pageTailLen(tailUsed)
	lastPN := d.f.LastPN()
	if int(lastPN) > n {
		pn := disk.Word(0)
		for i := 0; i < n-1; i++ {
			pn++
			if err := d.f.WritePage(pn, &pages[i], disk.PageBytes); err != nil {
				return err
			}
		}
		if err := d.f.Truncate(disk.Word(n), tail); err != nil {
			return err
		}
		if err := d.f.WritePage(disk.Word(n), &pages[n-1], tail); err != nil {
			return err
		}
	} else {
		pn := disk.Word(0)
		for i := range pages {
			pn++
			length := disk.PageBytes
			if i == n-1 {
				length = tail
			}
			if err := d.f.WritePage(pn, &pages[i], length); err != nil {
				return err
			}
		}
	}
	return d.f.Sync()
}

// entryWords is the length of name's entry. An empty name still gets one
// name word, since readers take shorter entries for damage.
func entryWords(name string) int {
	return entryFixed + max(1, (len(name)+1)/2)
}

// putEntry serializes one entry into the page at word offset used, which the
// caller has verified it fits at, and returns the offset after it. Both store
// and the appending Insert go through it, so their layouts are identical.
func putEntry(cur *[disk.PageWords]disk.Word, used int, e Entry) int {
	length := entryWords(e.Name)
	cur[used] = disk.Word(length)
	cur[used+1] = disk.Word(e.FN.FV.FID >> 16)
	cur[used+2] = disk.Word(e.FN.FV.FID)
	cur[used+3] = e.FN.FV.Version
	cur[used+4] = disk.Word(e.FN.Leader)
	cur[used+5] = disk.Word(len(e.Name))
	// Whole words are assigned, not or-ed in: an appending Insert writes
	// over whatever followed the old end mark.
	for j := 0; j < len(e.Name); j += 2 {
		w := disk.Word(e.Name[j]) << 8
		if j+1 < len(e.Name) {
			w |= disk.Word(e.Name[j+1])
		}
		cur[used+entryFixed+j/2] = w
	}
	return used + length
}

// entryNameIs compares the name of the entry at word offset i against name
// without decoding it into a buffer.
func entryNameIs(buf *[disk.PageWords]disk.Word, i int, name string) bool {
	if int(buf[i+5]) != len(name) {
		return false
	}
	for j := 0; j < len(name); j++ {
		w := buf[i+entryFixed+j/2]
		b := byte(w)
		if j%2 == 0 {
			b = byte(w >> 8)
		}
		if b != name[j] {
			return false
		}
	}
	return true
}

// pageTailLen returns the byte length of a final page whose end mark is at
// word used: everything up to and including the mark. It counts from the
// mark, not from the last nonzero word, since an entry may end in a zero
// word (an empty name, or one ending in NUL bytes) and must stay inside
// the page.
func pageTailLen(used int) int {
	return min(2*(used+1), disk.PageBytes-2)
}

// Lookup finds the full name bound to name. It compares each entry's name
// in place, without decoding the directory.
func (d *Directory) Lookup(name string) (file.FN, error) {
	fn, ok, err := d.find(func(p *[disk.PageWords]disk.Word, i int) bool {
		return entryNameIs(p, i, name)
	})
	if err == nil && !ok {
		err = fmt.Errorf("%w: %q", ErrNotFound, name)
	}
	return fn, err
}

// LookupFV finds an entry by (FID, version), returning its recorded leader
// address hint. Used by the §3.6 ladder when a program holds a valid FV but
// a stale address.
func (d *Directory) LookupFV(fv disk.FV) (file.FN, error) {
	fn, ok, err := d.find(func(p *[disk.PageWords]disk.Word, i int) bool {
		return entryFN(p, i).FV == fv
	})
	if err == nil && !ok {
		err = fmt.Errorf("%w: %v", ErrNotFound, fv)
	}
	return fn, err
}

// find returns the first entry match accepts, and whether there was one.
// It scans on to the end mark after a match, so damage anywhere in the
// directory is still reported and every lookup reads the same pages.
func (d *Directory) find(match func(p *[disk.PageWords]disk.Word, i int) bool) (file.FN, bool, error) {
	var fn file.FN
	found := false
	s := d.scan()
	for s.next() {
		if !found && match(&d.page, s.at) {
			fn, found = entryFN(&d.page, s.at), true
		}
	}
	if s.err != nil {
		return file.FN{}, false, s.err
	}
	return fn, found, nil
}

// Insert binds name to fn. The name must not already be present.
//
// Insert appends: it scans the existing pages once (checking for the name in
// passing) and rewrites only the final page — plus one fresh page when the
// entry does not fit — rather than re-serializing the whole directory. The
// layout it produces is exactly the one store would.
func (d *Directory) Insert(name string, fn file.FN) error {
	if len(name) > maxName {
		return fmt.Errorf("%w: name %q too long", file.ErrBadArg, name)
	}
	length := entryWords(name)
	s := d.scan()
	for s.next() {
		if entryNameIs(&d.page, s.at, name) {
			return fmt.Errorf("%w: %q", ErrExists, name)
		}
	}
	if s.err != nil && !errors.Is(s.err, ErrFormat) {
		return s.err
	}
	if !s.ended || s.pn != s.lastPN {
		// No end mark where the appending fast path expects one (a damaged
		// or oddly shaped directory): fall back to the full rewrite, which
		// also normalizes the layout.
		entries, err := d.Load()
		if err != nil {
			return err
		}
		for _, e := range entries {
			if e.Name == name {
				return fmt.Errorf("%w: %q", ErrExists, name)
			}
		}
		entries = append(entries, Entry{Name: name, FN: fn})
		return d.store(entries)
	}

	// d.page holds the tail page, with its end mark at word s.at.
	buf, endPN, endAt := &d.page, s.pn, s.at
	e := Entry{Name: name, FN: fn}
	if endAt+length+1 > disk.PageWords { // +1 for the end mark
		// Pad the tail page to a full interior page, then start a new tail.
		buf[endAt] = padMark
		if err := d.f.WritePage(endPN, buf, disk.PageBytes); err != nil {
			return err
		}
		*buf = [disk.PageWords]disk.Word{}
		used := putEntry(buf, 0, e)
		buf[used] = endMark
		if err := d.f.WritePage(endPN+1, buf, pageTailLen(used)); err != nil {
			return err
		}
	} else {
		used := putEntry(buf, endAt, e)
		buf[used] = endMark
		if err := d.f.WritePage(endPN, buf, pageTailLen(used)); err != nil {
			return err
		}
	}
	return d.f.Sync()
}

// Update rebinds name to fn (or inserts it if absent) — used to refresh a
// stale leader-address hint after recovery.
func (d *Directory) Update(name string, fn file.FN) error {
	entries, err := d.Load()
	if err != nil {
		return err
	}
	for i := range entries {
		if entries[i].Name == name {
			entries[i].FN = fn
			return d.store(entries)
		}
	}
	entries = append(entries, Entry{Name: name, FN: fn})
	return d.store(entries)
}

// Remove deletes the binding for name. The file itself is untouched: names
// and files are independent.
func (d *Directory) Remove(name string) error {
	entries, err := d.Load()
	if err != nil {
		return err
	}
	for i := range entries {
		if entries[i].Name == name {
			entries = append(entries[:i], entries[i+1:]...)
			return d.store(entries)
		}
	}
	return fmt.Errorf("%w: %q", ErrNotFound, name)
}

// List returns all entries sorted by name.
func (d *Directory) List() ([]Entry, error) {
	entries, err := d.Load()
	if err != nil {
		return nil, err
	}
	slices.SortFunc(entries, func(a, b Entry) int { return strings.Compare(a.Name, b.Name) })
	return entries, nil
}

// InitRoot populates a freshly formatted root directory with the standard
// self-describing entries: the root itself and the disk descriptor.
func InitRoot(fs *file.FS) (*Directory, error) {
	root, err := OpenRoot(fs)
	if err != nil {
		return nil, err
	}
	desc := file.FN{FV: disk.FV{FID: disk.DescriptorFID, Version: 1}, Leader: file.DescLeaderVDA}
	if err := root.Insert("SysDir.", root.FN()); err != nil {
		return nil, err
	}
	if err := root.Insert("DiskDescriptor.", desc); err != nil {
		return nil, err
	}
	return root, nil
}

// Walk visits every directory reachable from start (following entries whose
// identifiers are in the directory range), calling visit once per directory.
// Cycles are fine: the graph may be arbitrary (§3.4). A directory that
// turns out damaged contributes no subdirectories.
func Walk(fs *file.FS, start file.FN, visit func(*Directory) error) error {
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
			// A vanished subdirectory loses names, not files; keep walking.
			continue
		}
		if err := visit(d); err != nil {
			return err
		}
		// Only the full names matter here, so the entries are not decoded.
		mark := len(queue)
		s := d.scan()
		for s.next() {
			if e := entryFN(&d.page, s.at); e.FV.FID.IsDirectory() && !seen[e.FV] {
				queue = append(queue, e)
			}
		}
		if s.err != nil {
			queue = queue[:mark]
		}
	}
	return nil
}

// ResolveFV searches every reachable directory for fv, the §3.6 "look up
// the FV in a directory" ladder step. It returns the recorded leader address.
func ResolveFV(fs *file.FS) func(fv disk.FV) (disk.VDA, error) {
	return func(fv disk.FV) (disk.VDA, error) {
		fn, ok, err := resolve(fs, func(p *[disk.PageWords]disk.Word, i int) bool {
			return entryFN(p, i).FV == fv
		})
		if err == nil && !ok {
			err = fmt.Errorf("%w: %v in any directory", ErrNotFound, fv)
		}
		return fn.Leader, err
	}
}

// ResolveName searches every reachable directory for a string name,
// returning its full name — the ladder's next step after FV lookup fails.
func ResolveName(fs *file.FS, name string) (file.FN, error) {
	fn, ok, err := resolve(fs, func(p *[disk.PageWords]disk.Word, i int) bool {
		return entryNameIs(p, i, name)
	})
	if err == nil && !ok {
		err = fmt.Errorf("%w: %q in any directory", ErrNotFound, name)
	}
	return fn, err
}

// resolve walks from the root and returns the first entry match accepts in
// the first directory that holds one, and whether there was one. Damaged
// directories are passed over. The walk goes on after a match, so it opens
// and reads exactly what a full walk does.
func resolve(fs *file.FS, match func(p *[disk.PageWords]disk.Word, i int) bool) (file.FN, bool, error) {
	var found file.FN
	ok := false
	err := Walk(fs, fs.RootDir(), func(d *Directory) error {
		if ok {
			return nil
		}
		if fn, hit, err := d.find(match); err == nil && hit {
			found, ok = fn, true
		}
		return nil
	})
	if err != nil {
		return file.FN{}, false, err
	}
	return found, ok, nil
}
