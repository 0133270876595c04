package fileserver

import (
	"bytes"
	"fmt"
	"slices"
	"testing"

	"altoos/internal/dir"
	"altoos/internal/disk"
	"altoos/internal/ether"
	"altoos/internal/file"
	"altoos/internal/sim"
)

// The byte path is the reference the word path must match: the server once
// unpacked every page to bytes and repacked every byte into message words,
// one byte at a time. These are those loops, kept verbatim, and the
// property tests below hold the packed path to them word for word.

// refPackChunk builds a MsgData message: opcode, byte count, packed bytes.
func refPackChunk(data []byte) []ether.Word {
	out := make([]ether.Word, 2+(len(data)+1)/2)
	out[0] = MsgData
	out[1] = ether.Word(len(data))
	for i, b := range data {
		if i%2 == 0 {
			out[2+i/2] |= ether.Word(b) << 8
		} else {
			out[2+i/2] |= ether.Word(b)
		}
	}
	return out
}

// refUnpackChunk is the inverse of refPackChunk.
func refUnpackChunk(msg []ether.Word) ([]byte, error) {
	if len(msg) < 2 {
		return nil, fmt.Errorf("%w: short data message", ErrProtocol)
	}
	n := int(msg[1])
	if 2+(n+1)/2 > len(msg) {
		return nil, fmt.Errorf("%w: truncated data message", ErrProtocol)
	}
	data := make([]byte, n)
	for i := range data {
		w := msg[2+i/2]
		if i%2 == 0 {
			data[i] = byte(w >> 8)
		} else {
			data[i] = byte(w)
		}
	}
	return data, nil
}

// refAppendWords unpacks n bytes out of words onto dst.
func refAppendWords(dst []byte, words []disk.Word, n int) []byte {
	for i := 0; i < n; i++ {
		w := words[i/2]
		if i%2 == 0 {
			dst = append(dst, byte(w>>8))
		} else {
			dst = append(dst, byte(w))
		}
	}
	return dst
}

// refFillPage packs the pn-th (1-based) page of data into buf, zero-padded.
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

// refReply is the byte path's fetch reply: a refPackChunk message per
// DataBytesPerMsg bytes, then the end marker.
func refReply(data []byte) [][]ether.Word {
	var out [][]ether.Word
	for off := 0; off < len(data); off += DataBytesPerMsg {
		out = append(out, refPackChunk(data[off:min(off+DataBytesPerMsg, len(data))]))
	}
	return append(out, []ether.Word{MsgEnd, ether.Word(len(data) & 0xFFFF), ether.Word(len(data) >> 16)})
}

// refReadFile is the byte path's read of a whole named file.
func refReadFile(t *testing.T, fs *file.FS, name string) []byte {
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
		out = refAppendWords(out, buf[:], n)
	}
	return out
}

// checkPages requires that the file name holds exactly the pages the byte
// path's fillPage lays data out as.
func checkPages(t *testing.T, fs *file.FS, name string, data []byte) {
	t.Helper()
	root, err := dir.OpenRoot(fs)
	if err != nil {
		t.Fatal(err)
	}
	fn, err := root.Lookup(name)
	if err != nil {
		t.Fatal(err)
	}
	f, err := fs.Open(fn)
	if err != nil {
		t.Fatal(err)
	}
	lastPN := disk.Word(len(data)/disk.PageBytes + 1)
	if f.LastPN() != lastPN {
		t.Fatalf("%d bytes: last page %d, want %d", len(data), f.LastPN(), lastPN)
	}
	var got, want [disk.PageWords]disk.Word
	for pn := disk.Word(1); pn <= lastPN; pn++ {
		n, err := f.ReadPage(pn, &got)
		if err != nil {
			t.Fatal(err)
		}
		wantLen := disk.PageBytes
		if pn == lastPN {
			wantLen = len(data) % disk.PageBytes
		}
		refFillPage(&want, data, int(pn))
		if n != wantLen || got != want {
			t.Fatalf("%d bytes: page %d holds %d bytes %v, want %d bytes %v", len(data), pn, n, got, wantLen, want)
		}
	}
}

// oracleLengths are the byte lengths the property tests cover: empty and
// one byte, page and chunk boundaries and their neighbours, multi-chunk
// files up to bulk's 32 pages, and seeded odd and even lengths between.
func oracleLengths(rnd *sim.Rand) []int {
	ls := []int{0, 1, 2, 3, 32*disk.PageBytes - 1}
	for _, b := range []int{disk.PageBytes, 2 * disk.PageBytes, DataBytesPerMsg, 2 * DataBytesPerMsg, 3 * DataBytesPerMsg} {
		ls = append(ls, b-1, b, b+1)
	}
	for i := 0; i < 8; i++ {
		ls = append(ls, rnd.Intn(8*disk.PageBytes)|1, rnd.Intn(8*disk.PageBytes)&^1)
	}
	return ls
}

// randomBytes draws n seeded bytes.
func randomBytes(rnd *sim.Rand, n int) []byte {
	out := make([]byte, n)
	for i := range out {
		out[i] = byte(rnd.Intn(256))
	}
	return out
}

// junkPad sets the unused low half of an odd-length chunk's last word and
// appends a trailing word past the count — bytes the byte path never reads.
func junkPad(msg []ether.Word, rnd *sim.Rand) []ether.Word {
	if msg[1]%2 == 1 {
		msg[len(msg)-1] |= ether.Word(1 + rnd.Intn(255))
	}
	return append(msg, 0xBEEF)
}

// TestWordPathMatchesBytePath stores every oracle length through the packed
// store path and fetches it back through the packed fetch path: the pages
// written and the reply queued must be the byte path's, word for word.
func TestWordPathMatchesBytePath(t *testing.T) {
	_, srv, _, _ := fixture(t, 0)
	rnd := sim.NewRand(18)
	for i, n := range oracleLengths(rnd) {
		name := fmt.Sprintf("oracle%d", i)
		data := randomBytes(rnd, n)
		ss := &session{}
		for off := 0; off < n; off += DataBytesPerMsg {
			msg := junkPad(refPackChunk(data[off:min(off+DataBytesPerMsg, n)]), rnd)
			if err := ss.in.add(msg); err != nil {
				t.Fatal(err)
			}
		}
		if err := srv.writeFile(name, ss.in.words, ss.in.n); err != nil {
			t.Fatal(err)
		}
		checkPages(t, srv.fs, name, data)

		words, got, err := srv.readFile(name)
		if err != nil {
			t.Fatal(err)
		}
		if got != n {
			t.Fatalf("readFile %q: %d bytes, want %d", name, got, n)
		}
		reply := &session{}
		reply.queueData(words, got)
		if want := refReply(refReadFile(t, srv.fs, name)); !slices.EqualFunc(reply.outq, want, slices.Equal) {
			t.Fatalf("%d bytes: fetch reply differs from the byte path's", n)
		}
	}
}

// TestFetchMasksOddTail writes pages whose unused low half is not zero —
// the packed path must pad an odd last byte as the byte path does.
func TestFetchMasksOddTail(t *testing.T) {
	_, srv, _, _ := fixture(t, 0)
	for _, n := range []int{1, 3, disk.PageBytes + 7, DataBytesPerMsg + 1} {
		name := fmt.Sprintf("junk%d", n)
		f, err := srv.fs.Create(name)
		if err != nil {
			t.Fatal(err)
		}
		root, err := dir.OpenRoot(srv.fs)
		if err != nil {
			t.Fatal(err)
		}
		if err := root.Insert(name, f.FN()); err != nil {
			t.Fatal(err)
		}
		var buf [disk.PageWords]disk.Word
		for i := range buf {
			buf[i] = 0xA5C3
		}
		lastPN := disk.Word(n/disk.PageBytes + 1)
		for pn := disk.Word(1); pn <= lastPN; pn++ {
			length := disk.PageBytes
			if pn == lastPN {
				length = n % disk.PageBytes
			}
			if err := f.WritePage(pn, &buf, length); err != nil {
				t.Fatal(err)
			}
		}
		if err := f.Sync(); err != nil {
			t.Fatal(err)
		}
		words, got, err := srv.readFile(name)
		if err != nil {
			t.Fatal(err)
		}
		reply := &session{}
		reply.queueData(words, got)
		if want := refReply(refReadFile(t, srv.fs, name)); !slices.EqualFunc(reply.outq, want, slices.Equal) {
			t.Fatalf("%d bytes: fetch reply %v, want the byte path's %v", n, reply.outq[len(reply.outq)-2], want[len(want)-2])
		}
	}
}

// TestMisalignedChunksLandLikeBytes hand-builds stores whose chunks have
// seeded lengths, odd ones in the middle included — only a non-conforming
// client sends those — and requires the session to hold exactly the bytes
// the byte path would have concatenated, packed, then land them as the byte
// path's pages.
func TestMisalignedChunksLandLikeBytes(t *testing.T) {
	_, srv, _, _ := fixture(t, 0)
	rnd := sim.NewRand(81)
	for trial := 0; trial < 40; trial++ {
		ss := &session{}
		var want []byte
		for chunks := rnd.Intn(12); chunks > 0; chunks-- {
			count := rnd.Intn(DataBytesPerMsg + 1)
			if rnd.Intn(4) == 0 {
				count = rnd.Intn(4)
			}
			msg := junkPad(refPackChunk(randomBytes(rnd, count)), rnd)
			b, err := refUnpackChunk(msg)
			if err != nil {
				t.Fatal(err)
			}
			want = append(want, b...)
			if err := ss.in.add(msg); err != nil {
				t.Fatal(err)
			}
		}
		if ss.in.n != len(want) {
			t.Fatalf("trial %d: session holds %d bytes, want %d", trial, ss.in.n, len(want))
		}
		packed := make([]ether.Word, (len(want)+1)/2)
		for i, b := range want {
			if i%2 == 0 {
				packed[i/2] = ether.Word(b) << 8
			} else {
				packed[i/2] |= ether.Word(b)
			}
		}
		if !slices.Equal(ss.in.words, packed) {
			t.Fatalf("trial %d: session words differ from the byte path's packing", trial)
		}
		if got := ether.AppendBytes(nil, ss.in.words, ss.in.n); !bytes.Equal(got, want) {
			t.Fatalf("trial %d: session bytes differ from the byte path's", trial)
		}
		name := fmt.Sprintf("mis%d", trial)
		if err := srv.writeFile(name, ss.in.words, ss.in.n); err != nil {
			t.Fatal(err)
		}
		checkPages(t, srv.fs, name, want)
	}
}

// TestClientRoundTripsOracleLengths drives every oracle length through the
// whole protocol: Client.Store's packed chunks, then Client.Fetch's reply
// unpacked at the API edge.
func TestClientRoundTripsOracleLengths(t *testing.T) {
	_, srv, clients, _ := fixture(t, 1)
	c := clients[0]
	rnd := sim.NewRand(7)
	for i, n := range oracleLengths(rnd) {
		name := fmt.Sprintf("rt%d", i)
		want := randomBytes(rnd, n)
		if err := c.Store(name, want); err != nil {
			t.Fatal(err)
		}
		pump(t, srv, clients)
		if _, err := c.Result(); err != nil {
			t.Fatalf("%d bytes: store: %v", n, err)
		}
		checkPages(t, srv.fs, name, want)
		if err := c.Fetch(name); err != nil {
			t.Fatal(err)
		}
		pump(t, srv, clients)
		got, err := c.Result()
		if err != nil {
			t.Fatalf("%d bytes: fetch: %v", n, err)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("%d bytes: fetched bytes differ", n)
		}
	}
}
