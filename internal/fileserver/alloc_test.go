package fileserver

import (
	"testing"

	"altoos/internal/disk"
	"altoos/internal/ether"
)

// TestFetchReplyAllocatesPerReplyNotPerChunk pins the fetch reply's layout:
// every message is a slice of one backing array, and the queue grows once,
// so a 32-page reply costs the allocations a 1-page one does.
func TestFetchReplyAllocatesPerReplyNotPerChunk(t *testing.T) {
	allocs := map[int]float64{}
	for _, pages := range []int{1, 32} {
		n := pages*disk.PageBytes - 1
		words := make([]ether.Word, (n+1)/2)
		ss := &session{}
		allocs[pages] = testing.AllocsPerRun(20, func() {
			ss.outq = nil
			ss.queueData(words, n)
		})
	}
	if allocs[1] != allocs[32] {
		t.Fatalf("queuing a fetch reply allocates %v times for 1 page, %v for 32; want the same", allocs[1], allocs[32])
	}
}

// TestAlignedChunkAllocatesNothing pins the store path: once the session's
// buffer has room, landing a chunk that starts on a word boundary is a copy.
func TestAlignedChunkAllocatesNothing(t *testing.T) {
	msg := make([]ether.Word, 2+DataBytesPerMsg/2)
	msg[0], msg[1] = MsgData, DataBytesPerMsg
	odd := []ether.Word{MsgData, 3, 0x4142, 0x4300}
	in := packed{words: make([]ether.Word, 0, 4*len(msg))}
	if a := testing.AllocsPerRun(50, func() {
		in.reset()
		for i := 0; i < 3; i++ {
			if err := in.add(msg); err != nil {
				t.Fatal(err)
			}
		}
		if err := in.add(odd); err != nil {
			t.Fatal(err)
		}
	}); a != 0 {
		t.Fatalf("landing aligned chunks allocates %v times, want 0", a)
	}
}

// benchFile is the layer benchmarks' file: bulk-lossy's 32 pages, the last
// one partial and odd.
const benchFile = 32*disk.PageBytes - 101

// BenchmarkFetchReply reads a 32-page file off the server's pack and queues
// its reply: the disk-page-to-wire half of the data path.
func BenchmarkFetchReply(b *testing.B) {
	_, srv, _, _ := fixture(b, 0)
	words := make([]ether.Word, (benchFile+1)/2)
	for i := range words {
		words[i] = ether.Word(i * 7)
	}
	words[len(words)-1] &= 0xFF00
	if err := srv.writeFile("bench", words, benchFile); err != nil {
		b.Fatal(err)
	}
	ss := &session{}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		words, n, err := srv.readFile("bench")
		if err != nil {
			b.Fatal(err)
		}
		ss.outq = ss.outq[:0]
		ss.queueData(words, n)
	}
}

// BenchmarkStoreLanding lands a 32-page store: a client's chunk messages
// accumulate in the session, then the pages are written: the wire-to-disk-
// page half of the data path.
func BenchmarkStoreLanding(b *testing.B) {
	_, srv, _, _ := fixture(b, 0)
	data := make([]byte, benchFile)
	for i := range data {
		data[i] = byte(i * 7)
	}
	msgs := byteMessages(nil, data)
	msgs = msgs[:len(msgs)-1] // the MsgEnd marker
	ss := &session{}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ss.in.reset()
		for _, m := range msgs {
			if err := ss.in.add(m); err != nil {
				b.Fatal(err)
			}
		}
		if err := srv.writeFile("bench", ss.in.words, ss.in.n); err != nil {
			b.Fatal(err)
		}
	}
}

// servedFile stores a file of pages pages (the last one partial) through
// handle and returns the messages that store it again and that fetch it.
func servedFile(tb testing.TB, rg *fuzzRig, name string, pages int) (store [][]ether.Word, fetch []ether.Word) {
	tb.Helper()
	store = append([][]ether.Word{stringMessage(MsgStore, name)}, byteMessages(nil, pattern(pages*disk.PageBytes-101, pages))...)
	serve(tb, rg, store, MsgOK)
	return store, stringMessage(MsgFetch, name)
}

// serve hands msgs to the rig's session through handle, requires the last
// reply to start with want, and empties the reply queue in place.
func serve(tb testing.TB, rg *fuzzRig, msgs [][]ether.Word, want ether.Word) {
	for _, m := range msgs {
		rg.srv.handle(rg.ss, m, 1)
	}
	if q := rg.ss.outq; len(q) == 0 || q[len(q)-1][0] != want {
		tb.Fatalf("replies %v, want the last to be %d", q, want)
	}
	rg.ss.outq = rg.ss.outq[:0]
}

// TestServedRequestsAllocatePerRequestNotPerPage pins a whole fetch and a
// whole store through handle: the file handles, the directory walk and the
// page buffers are the server's own, so a 32-page request allocates what a
// 1-page one does.
func TestServedRequestsAllocatePerRequestNotPerPage(t *testing.T) {
	fetches, stores := map[int]float64{}, map[int]float64{}
	for _, pages := range []int{1, 32} {
		rg := newFuzzRig(t)
		store, fetch := servedFile(t, rg, "served", pages)
		fetches[pages] = testing.AllocsPerRun(10, func() { serve(t, rg, [][]ether.Word{fetch}, MsgEnd) })
		stores[pages] = testing.AllocsPerRun(10, func() { serve(t, rg, store, MsgOK) })
	}
	if fetches[1] != fetches[32] {
		t.Errorf("a served fetch allocates %v times for 1 page, %v for 32; want the same", fetches[1], fetches[32])
	}
	if stores[1] != stores[32] {
		t.Errorf("a served store allocates %v times for 1 page, %v for 32; want the same", stores[1], stores[32])
	}
}

// TestResolveNameThroughServerStorageAllocatesNothing pins the fetch path's
// name lookup: the walk runs through the server's Walker.
func TestResolveNameThroughServerStorageAllocatesNothing(t *testing.T) {
	rg := newFuzzRig(t)
	servedFile(t, rg, "served", 2)
	if a := testing.AllocsPerRun(20, func() {
		if _, err := rg.srv.walk.ResolveName(rg.srv.fs, "served"); err != nil {
			t.Fatal(err)
		}
	}); a != 0 {
		t.Errorf("ResolveName through the server's walker: %v allocs, want 0", a)
	}
}

// BenchmarkServeFetch serves a whole fetch of a 32-page file through
// handle: the name unpacked, resolved and opened, the pages read and the
// reply queued.
func BenchmarkServeFetch(b *testing.B) {
	rg := newFuzzRig(b)
	_, fetch := servedFile(b, rg, "bench", 32)
	msgs := [][]ether.Word{fetch}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		serve(b, rg, msgs, MsgEnd)
	}
}

// BenchmarkServeStore serves a whole store of a 32-page file over itself
// through handle: the request, every chunk and the end marker, which lands
// the pages.
func BenchmarkServeStore(b *testing.B) {
	rg := newFuzzRig(b)
	store, _ := servedFile(b, rg, "bench", 32)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		serve(b, rg, store, MsgOK)
	}
}
