package dir

import (
	"errors"
	"fmt"
	"strings"
	"testing"

	"altoos/internal/disk"
	"altoos/internal/file"
)

func newFS(t *testing.T) *file.FS {
	t.Helper()
	d, err := disk.NewDrive(disk.Diablo31(), 1, nil)
	if err != nil {
		t.Fatal(err)
	}
	fs, err := file.Format(d)
	if err != nil {
		t.Fatal(err)
	}
	return fs
}

func newRoot(t *testing.T) (*file.FS, *Directory) {
	t.Helper()
	fs := newFS(t)
	root, err := InitRoot(fs)
	if err != nil {
		t.Fatal(err)
	}
	return fs, root
}

func TestInitRootHasStandardEntries(t *testing.T) {
	_, root := newRoot(t)
	entries, err := root.List()
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 2 {
		t.Fatalf("root has %d entries, want 2: %+v", len(entries), entries)
	}
	if _, err := root.Lookup("SysDir."); err != nil {
		t.Error("SysDir. missing")
	}
	if _, err := root.Lookup("DiskDescriptor."); err != nil {
		t.Error("DiskDescriptor. missing")
	}
}

func TestInsertLookupRemove(t *testing.T) {
	fs, root := newRoot(t)
	f, err := fs.Create("hello.txt")
	if err != nil {
		t.Fatal(err)
	}
	if err := root.Insert("hello.txt", f.FN()); err != nil {
		t.Fatal(err)
	}
	fn, err := root.Lookup("hello.txt")
	if err != nil {
		t.Fatal(err)
	}
	if fn != f.FN() {
		t.Errorf("lookup = %v, want %v", fn, f.FN())
	}
	if err := root.Insert("hello.txt", f.FN()); !errors.Is(err, ErrExists) {
		t.Errorf("duplicate insert: %v", err)
	}
	if err := root.Remove("hello.txt"); err != nil {
		t.Fatal(err)
	}
	if _, err := root.Lookup("hello.txt"); !errors.Is(err, ErrNotFound) {
		t.Errorf("lookup after remove: %v", err)
	}
	if err := root.Remove("hello.txt"); !errors.Is(err, ErrNotFound) {
		t.Errorf("double remove: %v", err)
	}
	// The file itself is untouched by name removal.
	var buf [disk.PageWords]disk.Word
	if _, err := f.ReadPage(1, &buf); err != nil {
		t.Errorf("file damaged by Remove: %v", err)
	}
}

func TestLookupFV(t *testing.T) {
	fs, root := newRoot(t)
	f, _ := fs.Create("byfv.dat")
	if err := root.Insert("byfv.dat", f.FN()); err != nil {
		t.Fatal(err)
	}
	fn, err := root.LookupFV(f.FN().FV)
	if err != nil {
		t.Fatal(err)
	}
	if fn.Leader != f.FN().Leader {
		t.Errorf("LookupFV leader = %d, want %d", fn.Leader, f.FN().Leader)
	}
}

func TestManyEntriesSpanPages(t *testing.T) {
	fs, root := newRoot(t)
	const n = 60
	fns := make([]file.FN, n)
	for i := 0; i < n; i++ {
		name := fmt.Sprintf("file-%03d-%s.dat", i, strings.Repeat("x", 20))
		f, err := fs.Create(name)
		if err != nil {
			t.Fatal(err)
		}
		fns[i] = f.FN()
		if err := root.Insert(name, f.FN()); err != nil {
			t.Fatal(err)
		}
	}
	if pn, _ := root.File().LastPage(); pn < 2 {
		t.Fatalf("directory should span pages, lastPN=%d", pn)
	}
	for i := 0; i < n; i++ {
		name := fmt.Sprintf("file-%03d-%s.dat", i, strings.Repeat("x", 20))
		fn, err := root.Lookup(name)
		if err != nil {
			t.Fatalf("lookup %q: %v", name, err)
		}
		if fn != fns[i] {
			t.Fatalf("entry %d corrupted", i)
		}
	}
	// Removing entries shrinks the file back.
	for i := 0; i < n; i++ {
		name := fmt.Sprintf("file-%03d-%s.dat", i, strings.Repeat("x", 20))
		if err := root.Remove(name); err != nil {
			t.Fatal(err)
		}
	}
	entries, err := root.List()
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 2 {
		t.Errorf("%d entries left, want the 2 standard ones", len(entries))
	}
	if pn, _ := root.File().LastPage(); pn != 1 {
		t.Errorf("directory not shrunk: lastPN=%d", pn)
	}
}

func TestUpdateRefreshesHint(t *testing.T) {
	fs, root := newRoot(t)
	f, _ := fs.Create("u.dat")
	if err := root.Insert("u.dat", f.FN()); err != nil {
		t.Fatal(err)
	}
	moved := f.FN()
	moved.Leader = 777
	if err := root.Update("u.dat", moved); err != nil {
		t.Fatal(err)
	}
	fn, _ := root.Lookup("u.dat")
	if fn.Leader != 777 {
		t.Errorf("Update did not take: leader=%d", fn.Leader)
	}
	if err := root.Update("fresh.dat", f.FN()); err != nil {
		t.Fatal(err)
	}
	if _, err := root.Lookup("fresh.dat"); err != nil {
		t.Error("Update did not insert missing name")
	}
}

func TestSubdirectoriesAndGraph(t *testing.T) {
	fs, root := newRoot(t)
	sub, err := Create(fs, root, "subdir.")
	if err != nil {
		t.Fatal(err)
	}
	if !sub.FN().FV.FID.IsDirectory() {
		t.Fatal("subdirectory FID not in directory range")
	}
	f, _ := fs.Create("deep.dat")
	if err := sub.Insert("deep.dat", f.FN()); err != nil {
		t.Fatal(err)
	}
	// A file may appear in any number of directories.
	if err := root.Insert("alias.dat", f.FN()); err != nil {
		t.Fatal(err)
	}
	// Directories may form an arbitrary graph — even cycles.
	if err := sub.Insert("parent.", root.FN()); err != nil {
		t.Fatal(err)
	}

	var visited []string
	err = Walk(fs, fs.RootDir(), func(d *Directory) error {
		visited = append(visited, d.File().Name())
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(visited) != 2 {
		t.Errorf("walk visited %v, want root and subdir once each", visited)
	}

	// ResolveFV finds files in subdirectories.
	leader, err := ResolveFV(fs)(f.FN().FV)
	if err != nil {
		t.Fatal(err)
	}
	if leader != f.FN().Leader {
		t.Errorf("ResolveFV = %d, want %d", leader, f.FN().Leader)
	}
	fn, err := ResolveName(fs, "deep.dat")
	if err != nil {
		t.Fatal(err)
	}
	if fn.FV != f.FN().FV {
		t.Error("ResolveName found wrong file")
	}
	if _, err := ResolveName(fs, "nonesuch"); !errors.Is(err, ErrNotFound) {
		t.Errorf("ResolveName of missing: %v", err)
	}
}

func TestOpenRejectsNonDirectory(t *testing.T) {
	fs, _ := newRoot(t)
	f, _ := fs.Create("plain.dat")
	if _, err := Open(fs, f.FN()); !errors.Is(err, ErrNotDirectory) {
		t.Fatalf("got %v, want ErrNotDirectory", err)
	}
}

func TestLongNamesRejected(t *testing.T) {
	fs, root := newRoot(t)
	f, _ := fs.Create("ln.dat")
	long := strings.Repeat("z", maxName+1)
	if err := root.Insert(long, f.FN()); err == nil {
		t.Fatal("accepted over-long name")
	}
}

func TestRecoveryLadderEndToEnd(t *testing.T) {
	// Wire the directory layer into the file layer's ladder and verify that
	// a completely stale full name recovers through the directory.
	fs, root := newRoot(t)
	fs.SetRecovery(file.Recovery{ResolveFV: ResolveFV(fs)})

	f, _ := fs.Create("ladder.dat")
	var p [disk.PageWords]disk.Word
	p[0] = 0xCAFE
	if err := f.WritePage(1, &p, 2); err != nil {
		t.Fatal(err)
	}
	if err := root.Insert("ladder.dat", f.FN()); err != nil {
		t.Fatal(err)
	}

	stale := f.FN()
	stale.Leader = 4000
	g, err := fs.Open(stale)
	if err != nil {
		t.Fatalf("open via ladder: %v", err)
	}
	var buf [disk.PageWords]disk.Word
	if n, err := g.ReadPage(1, &buf); err != nil || n != 2 || buf[0] != 0xCAFE {
		t.Fatalf("ladder read: n=%d err=%v", n, err)
	}
}

func TestDamagedDirectoryReportsFormat(t *testing.T) {
	fs, root := newRoot(t)
	f, _ := fs.Create("x.dat")
	if err := root.Insert("x.dat", f.FN()); err != nil {
		t.Fatal(err)
	}
	// Scribble a nonsense entry length into the directory page.
	var buf [disk.PageWords]disk.Word
	n, err := root.File().ReadPage(1, &buf)
	if err != nil {
		t.Fatal(err)
	}
	buf[0] = 3 // < entryFixed+1
	if err := root.File().WritePage(1, &buf, n); err != nil {
		t.Fatal(err)
	}
	if _, err := root.Load(); !errors.Is(err, ErrFormat) {
		t.Fatalf("got %v, want ErrFormat", err)
	}
}

// TestEntriesEndingInZeroWordsStayInsideThePage inserts names whose entries
// end in a zero word: the empty name, and names ending in NUL bytes. The
// tail page's length once counted to the last nonzero word, cutting such an
// entry short, so the directory read back as malformed and every name in it
// was lost. Both writers — the appending Insert and the full rewrite that
// Remove does — must keep the entry whole.
func TestEntriesEndingInZeroWordsStayInsideThePage(t *testing.T) {
	fs, root := newRoot(t)
	names := []string{"", "a\x00\x00", "bc\x00", "d\x00", "after"}
	for i, name := range names {
		f, err := fs.Create("z")
		if err != nil {
			t.Fatal(err)
		}
		if err := root.Insert(name, f.FN()); err != nil {
			t.Fatalf("insert %q: %v", name, err)
		}
		for _, n := range names[:i+1] {
			if _, err := root.Lookup(n); err != nil {
				t.Fatalf("after inserting %q: lookup %q: %v", name, n, err)
			}
		}
		if _, err := ResolveName(fs, name); err != nil {
			t.Fatalf("after inserting %q: resolve: %v", name, err)
		}
	}
	if err := root.Remove("after"); err != nil {
		t.Fatal(err)
	}
	entries, err := root.Load()
	if err != nil || len(entries) != 2+len(names)-1 {
		t.Fatalf("after the rewrite: %d entries, %v; want %d", len(entries), err, 2+len(names)-1)
	}
	if _, err := root.Lookup("d\x00"); err != nil {
		t.Fatalf("after the rewrite: %v", err)
	}
}
