// Package fileserver is a multi-client file server over the reliable
// transport — the paper's §1 "remote facilities" grown past a demo: one
// station, one file system, N concurrent sessions, each its own reliable
// connection, multiplexed by (source address, connection id) and served
// round-robin from the server's single poll loop (§2: the machine has no
// scheduler, so concurrency is the server program's own business). The
// service rule: one Poll serves sessions from a cursor until one of them
// does disk work, then returns, so the wire is read between any two disk
// jobs and every session gets its turn at the disk in rotation.
//
// The wire protocol is word-level messages over pup connections:
//
//	[MsgFetch, name...]        client asks for a file by name
//	[MsgStore, name...]        client begins storing a file
//	[MsgData,  count, bytes]   one chunk, either direction
//	[MsgEnd,   lo, hi]         end of data, total byte count
//	[MsgOK]                    server confirms a store hit the disk
//	[MsgError, message...]     either side reports failure
//
// The server serves reads and writes through the multipage chain paths:
// full interior pages move in chained batches (file.ReadPages/WritePages),
// only the partial last page takes the one-page path. Every session is a
// trace span (trace.KindFSSession), and Stats summarizes the server's life.
package fileserver

import (
	"errors"
	"fmt"
	"slices"
	"time"

	"altoos/internal/dir"
	"altoos/internal/disk"
	"altoos/internal/ether"
	"altoos/internal/file"
	"altoos/internal/pup"
	"altoos/internal/trace"
)

// The counters and histograms this package records, interned once.
var (
	cClientDial   = trace.NewCounter("fs.client.dial")
	cClientDone   = trace.NewCounter("fs.client.done")
	cDigest       = trace.NewCounter("fs.digest")
	cFetch        = trace.NewCounter("fs.fetch")
	cScrubPages   = trace.NewCounter("fs.scrub.pages")
	cSessionClose = trace.NewCounter("fs.session.close")
	cStore        = trace.NewCounter("fs.store")
)

// Message opcodes (the first payload word of every transport message).
const (
	MsgFetch ether.Word = 1 + iota
	MsgStore
	MsgData
	MsgEnd
	MsgOK
	MsgError
	// MsgDigest asks for the server's per-file digest table — name, size,
	// content checksum, write stamp, local-cleanliness bit for every file in
	// the root directory. The reply is the serialized table as ordinary
	// MsgData chunks. The cluster audit protocol polls peers with it.
	MsgDigest
)

// DataBytesPerMsg is the chunk size: a transport message minus the opcode
// and byte-count words, two bytes per word.
const DataBytesPerMsg = 2 * (pup.MaxData - 2)

// chainPages is the batch size for multipage disk transfers.
const chainPages = 8

// Errors.
var (
	// ErrRemote reports a MsgError from the far end.
	ErrRemote = errors.New("fileserver: remote error")
	// ErrBusy reports a second request before the first completed.
	ErrBusy = errors.New("fileserver: transfer already in progress")
	// ErrProtocol reports a malformed message.
	ErrProtocol = errors.New("fileserver: protocol error")
)

// Stats summarizes a server's life so far.
type Stats struct {
	Sessions int64 // connections accepted
	Active   int64 // connections live right now
	Fetches  int64 // files served
	Stores   int64 // files written
	Digests  int64 // digest tables served
	BytesIn  int64 // data bytes received from clients
	BytesOut int64 // data bytes sent to clients
}

// Server serves one file system to any number of clients over one station.
type Server struct {
	fs *file.FS
	ep *pup.Endpoint

	// sessions in accept order: every sweep walks this slice, never a map,
	// so service order — and with it the trace — is deterministic. next is
	// the round-robin cursor, the session the next sweep starts at.
	sessions []*session
	next     int
	stats    Stats

	// The server runs one request at a time, so one set of storage serves
	// every fetch and store and a request leaves no handle or page-sized
	// garbage behind: walk resolves fetched names, root is the directory a
	// store enters its name in, f is the file handle re-primed for each
	// request (see file.File), words holds a fetched file, and pages is
	// the buffer readFile and writeFile move page runs through.
	walk  dir.Walker
	root  dir.Directory
	f     file.File
	words []ether.Word
	pages [chainPages][disk.PageWords]disk.Word
}

// session is one client connection's server-side state.
type session struct {
	conn   *pup.Conn
	opened time.Duration
	moved  int64 // data bytes in either direction, for the trace span
	flow   int64 // first client flow adopted, stamped on the session span

	// outq is the pending outbound message queue; push drains it as the
	// send window allows (backpressure, never blocking the poll loop).
	outq [][]ether.Word

	// inbound store in progress, if any. The store's flow and start are
	// held from MsgStore to MsgEnd so the request span covers the whole
	// inbound transfer plus the disk chain that lands it.
	storing    bool
	storeName  string
	in         packed
	storeFlow  int64
	storeStart time.Duration
}

// NewServer builds a server from a file system and a transport endpoint.
// The endpoint is put into listening mode; the caller just polls.
func NewServer(fs *file.FS, ep *pup.Endpoint) *Server {
	ep.Listen()
	return &Server{fs: fs, ep: ep}
}

// Endpoint returns the server's transport endpoint.
func (s *Server) Endpoint() *pup.Endpoint { return s.ep }

// Stats returns a snapshot of the server's counters.
func (s *Server) Stats() Stats {
	st := s.stats
	st.Active = int64(len(s.sessions))
	return st
}

// rec reaches the station's flight recorder (nil when tracing is off).
func (s *Server) rec() *trace.Recorder { return s.ep.Station().TraceRecorder() }

// Poll is the server's activity: one transport poll, new connections
// accepted, then sessions served round-robin from a cursor. A session whose
// requests moved the server's clock did disk work, and the sweep ends right
// after it: the next Poll reads the wire and accepts first, then resumes at
// the following session. Sessions that only move packets are all served in
// one sweep. With no scheduler to preempt a disk job (§2), this keeps the
// wire read between jobs, so waiting clients see acks instead of timing
// out, and no session waits more than one cycle of the others' disk work.
// Returns whether any work happened, so activity-switching loops can tell
// busy from idle.
func (s *Server) Poll() (bool, error) {
	worked, err := s.ep.Poll()
	if err != nil {
		return true, err
	}
	for {
		conn, ok := s.ep.Accept()
		if !ok {
			break
		}
		s.sessions = append(s.sessions, &session{
			conn:   conn,
			opened: s.ep.Station().Clock().Now(),
		})
		s.stats.Sessions++
		worked = true
	}
	// Each turn visits one session: retiring it leaves the cursor on its
	// successor, serving it moves the cursor past, so nobody is skipped or
	// served twice in one sweep.
	for range len(s.sessions) {
		if s.next >= len(s.sessions) {
			s.next = 0
		}
		ss := s.sessions[s.next]
		w, job := s.serve(ss)
		worked = worked || w
		if ss.conn.State() == pup.StateClosed {
			s.closeSession(ss)
			s.sessions = slices.Delete(s.sessions, s.next, s.next+1)
		} else {
			s.next++
		}
		if job {
			break
		}
	}
	return worked, nil
}

// closeSession retires a finished session, emitting its trace span. The span
// carries the first flow the session adopted, linking the server's view back
// to the client request that opened the exchange.
func (s *Server) closeSession(ss *session) {
	if rec := s.rec(); rec != nil {
		now := s.ep.Station().Clock().Now()
		rec.EmitSpanFlow(ss.opened, now-ss.opened, trace.KindFSSession, "",
			int64(ss.conn.Remote()), ss.moved, ss.flow)
		rec.Add(cSessionClose, 1)
	}
}

// serve advances one session: drain inbound messages, push outbound ones.
// job reports whether handling the messages moved the clock: only a disk
// job does (with the ack it flushes first), while pushing replies charges
// wire time alone.
func (s *Server) serve(ss *session) (worked, job bool) {
	clock := s.ep.Station().Clock()
	before := clock.Now()
	for {
		msg, flow, ok := ss.conn.RecvFlow()
		if !ok {
			break
		}
		worked = true
		s.handle(ss, msg, flow)
		ether.Free(msg) // handle copies out what it keeps
	}
	job = clock.Now() != before
	if ss.push() {
		worked = true
	}
	return worked, job
}

// push sends queued messages while the window has room; other errors kill
// the connection (its own state reports why). Avail batches the sends —
// ErrWindowFull stays as a backstop only.
func (ss *session) push() bool {
	worked := false
	for len(ss.outq) > 0 && ss.conn.Avail() > 0 {
		err := ss.conn.Send(ss.outq[0])
		if errors.Is(err, pup.ErrWindowFull) {
			break
		}
		if err != nil {
			ss.outq = nil
			break
		}
		ss.outq = ss.outq[1:]
		worked = true
	}
	return worked
}

// handle processes one client message. The message's flow — allocated by the
// client, carried in every transport header — is adopted here: replies ride
// it back, the per-request span is stamped with it, and the session span
// keeps the first one it saw.
func (s *Server) handle(ss *session, msg []ether.Word, flow int64) {
	if len(msg) == 0 {
		return
	}
	if ss.flow == 0 {
		ss.flow = flow
	}
	// Replies queued from here on carry the request's flow on the wire.
	ss.conn.SetFlow(flow)
	switch msg[0] {
	case MsgFetch:
		name, err := ether.UnpackString(msg[1:])
		if err != nil {
			ss.sendError("bad fetch request")
			return
		}
		start := s.ep.Station().Clock().Now()
		// The disk read blocks every poll for tens of milliseconds; flush
		// the delayed ack first so the client's RTT estimator never sees a
		// disk stall where a wire round trip should be.
		ss.conn.FlushAck()
		words, n, err := s.readFile(name)
		if err != nil {
			ss.sendError(err.Error())
			return
		}
		ss.queueData(words, n)
		ss.moved += int64(n)
		s.stats.Fetches++
		s.stats.BytesOut += int64(n)
		if rec := s.rec(); rec != nil {
			now := s.ep.Station().Clock().Now()
			rec.EmitSpanFlow(start, now-start, trace.KindFSRequest, "fetch",
				int64(ss.conn.Remote()), int64(n), flow)
			rec.Add(cFetch, 1)
		}
	case MsgDigest:
		start := s.ep.Station().Clock().Now()
		// Digesting reads every page of every file — tens of milliseconds of
		// disk time per file; flush the delayed ack first, as fetch does.
		ss.conn.FlushAck()
		data, err := s.digestTable()
		if err != nil {
			ss.sendError(err.Error())
			return
		}
		ss.outq = byteMessages(ss.outq, data)
		ss.moved += int64(len(data))
		s.stats.Digests++
		s.stats.BytesOut += int64(len(data))
		if rec := s.rec(); rec != nil {
			now := s.ep.Station().Clock().Now()
			rec.EmitSpanFlow(start, now-start, trace.KindFSRequest, "digest",
				int64(ss.conn.Remote()), int64(len(data)), flow)
			rec.Add(cDigest, 1)
		}
	case MsgStore:
		name, err := ether.UnpackString(msg[1:])
		if err != nil {
			ss.sendError("bad store request")
			return
		}
		ss.storing, ss.storeName = true, name
		ss.in.reset()
		ss.storeFlow = flow
		ss.storeStart = s.ep.Station().Clock().Now()
	case MsgData:
		if !ss.storing {
			return // stray data: drop, as on a real wire
		}
		if err := ss.in.add(msg); err != nil {
			ss.sendError(err.Error())
			ss.storing = false
		}
	case MsgEnd:
		if !ss.storing {
			return
		}
		ss.storing = false
		if total, ok := unpackTotal(msg); !ok || total != ss.in.n {
			ss.sendError("store length mismatch")
			return
		}
		// As with fetch: ack the tail of the store before the long write
		// so the client does not retransmit into a silent disk stall.
		ss.conn.FlushAck()
		if err := s.writeFile(ss.storeName, ss.in.words, ss.in.n); err != nil {
			ss.sendError(err.Error())
			return
		}
		ss.moved += int64(ss.in.n)
		s.stats.Stores++
		s.stats.BytesIn += int64(ss.in.n)
		if rec := s.rec(); rec != nil {
			now := s.ep.Station().Clock().Now()
			rec.EmitSpanFlow(ss.storeStart, now-ss.storeStart, trace.KindFSRequest, "store",
				int64(ss.conn.Remote()), int64(ss.in.n), ss.storeFlow)
			rec.Add(cStore, 1)
		}
		ss.outq = append(ss.outq, []ether.Word{MsgOK})
	}
}

// sendError queues a MsgError reply.
func (ss *session) sendError(msg string) {
	ss.outq = append(ss.outq, stringMessage(MsgError, msg))
}

// stringMessage builds the message [op, len, str…] in one allocation: a
// fetch or store request, or an error reply.
func stringMessage(op ether.Word, str string) []ether.Word {
	msg := make([]ether.Word, 1, 2+(len(str)+1)/2)
	msg[0] = op
	return ether.AppendString(msg, str)
}

// queueData queues a full fetch reply of n bytes, packed in words: data
// chunks, then the end marker.
func (ss *session) queueData(words []ether.Word, n int) {
	ss.outq = dataMessages(ss.outq, n, func(dst []ether.Word, off, _ int) {
		copy(dst, words[off/2:])
	})
}

// dataMessages appends a whole transfer of n bytes to q: a MsgData message
// per DataBytesPerMsg bytes, then the MsgEnd marker, all sub-slices of one
// backing array. fill packs bytes [off, off+count) into a message's payload
// words; chunks are an even number of bytes apart, so off always starts a
// word.
func dataMessages(q [][]ether.Word, n int, fill func(dst []ether.Word, off, count int)) [][]ether.Word {
	chunks := (n + DataBytesPerMsg - 1) / DataBytesPerMsg
	backing := make([]ether.Word, 2*chunks+(n+1)/2+3)
	q = slices.Grow(q, chunks+1)
	for off := 0; off < n; off += DataBytesPerMsg {
		count := min(n-off, DataBytesPerMsg)
		size := 2 + (count+1)/2
		msg := backing[:size:size]
		backing = backing[size:]
		msg[0], msg[1] = MsgData, ether.Word(count)
		fill(msg[2:], off, count)
		q = append(q, msg)
	}
	end := backing[:3:3]
	end[0], end[1], end[2] = MsgEnd, ether.Word(n&0xFFFF), ether.Word(n>>16)
	return append(q, end)
}

// byteMessages appends data as a whole transfer (see dataMessages), packing
// each chunk's bytes straight into its message.
func byteMessages(q [][]ether.Word, data []byte) [][]ether.Word {
	return dataMessages(q, len(data), func(dst []ether.Word, off, count int) {
		ether.PackBytes(dst, data[off:off+count])
	})
}

// packed accumulates a transfer's MsgData payloads as packed words, the
// layout they travel in and land on disk in, and reuses its buffers from
// transfer to transfer. The server lands stores in one; the client
// accumulates fetches in one.
type packed struct {
	words []ether.Word // (n+1)/2 words, the low half of an odd last byte's zero
	n     int          // bytes held
	spill []byte       // a misaligned chunk's bytes (see add)
}

// reset empties p for the next transfer.
func (p *packed) reset() { p.words, p.n = p.words[:0], 0 }

// add appends one MsgData message's payload. A chunk that starts on a word
// boundary — every chunk a conforming sender sends, since only its last may
// have an odd length — is one copy. The low half of a chunk's odd last
// byte is masked, since the byte layout pads it with zero whatever the
// sender put there.
func (p *packed) add(msg []ether.Word) error {
	words, n, err := chunkWords(msg)
	if err != nil {
		return err
	}
	if p.n%2 == 0 {
		p.words = append(p.words, words...)
		if n%2 == 1 {
			p.words[len(p.words)-1] &= 0xFF00
		}
	} else if n > 0 {
		// A chunk after an odd-length one shifts every byte by half a
		// word: the first fills the pending low half, the rest pack anew.
		p.spill = ether.AppendBytes(p.spill[:0], words, n)
		p.words[len(p.words)-1] |= ether.Word(p.spill[0])
		at := len(p.words)
		p.words = slices.Grow(p.words, n/2)[:at+n/2]
		ether.PackBytes(p.words[at:], p.spill[1:])
	}
	p.n += n
	return nil
}

// chunkWords checks a MsgData message and returns its payload words and
// byte count.
func chunkWords(msg []ether.Word) ([]ether.Word, int, error) {
	if len(msg) < 2 {
		return nil, 0, fmt.Errorf("%w: short data message", ErrProtocol)
	}
	n := int(msg[1])
	if 2+(n+1)/2 > len(msg) {
		return nil, 0, fmt.Errorf("%w: truncated data message", ErrProtocol)
	}
	return msg[2 : 2+(n+1)/2], n, nil
}

// readFile reads a whole named file as words plus its byte length: full
// interior pages in chained batches, the partial last page on the one-page
// path. Page words copy straight across, since a page packs its bytes as a
// message does; the low half of an odd last byte's word is masked, as the
// byte layout pads it. The words are the server's own buffer, valid until
// the next request.
func (s *Server) readFile(name string) ([]ether.Word, int, error) {
	fn, err := s.walk.ResolveName(s.fs, name)
	if err != nil {
		return nil, 0, fmt.Errorf("no such file %q", name)
	}
	f := &s.f
	if err := s.fs.OpenInto(f, fn); err != nil {
		return nil, 0, fmt.Errorf("open %q failed", name)
	}
	lastPN, lastLen := f.LastPage()
	// Grown once to the whole file, so the appends below stay in s.words.
	s.words = slices.Grow(s.words[:0], (int(lastPN)-1)*disk.PageWords+(lastLen+1)/2)
	out := s.words
	pages := &s.pages
	for pn := disk.Word(1); pn < lastPN; {
		n := int(lastPN - pn)
		if n > chainPages {
			n = chainPages
		}
		if err := f.ReadPages(pn, pages[:n]); err != nil {
			return nil, 0, fmt.Errorf("read %q page %d failed", name, pn)
		}
		for i := range pages[:n] {
			out = append(out, pages[i][:]...)
		}
		pn += disk.Word(n)
	}
	n, err := f.ReadPage(lastPN, &pages[0])
	if err != nil {
		return nil, 0, fmt.Errorf("read %q last page failed", name)
	}
	out = append(out, pages[0][:(n+1)/2]...)
	if n%2 == 1 {
		out[len(out)-1] &= 0xFF00
	}
	return out, (int(lastPN)-1)*disk.PageBytes + n, nil
}

// writeFile stores the n bytes packed in words under name: existing interior
// pages are overwritten in chained batches, growth and the last page go
// through the one-page path, and a shrinking store truncates the leftovers.
// words must hold (n+1)/2 words, the low half of an odd last byte's zero.
func (s *Server) writeFile(name string, words []ether.Word, n int) error {
	root := &s.root
	if err := dir.OpenInto(s.fs, root, s.fs.RootDir()); err != nil {
		return errors.New("no root directory")
	}
	var f *file.File
	if fn, err := root.Lookup(name); err == nil {
		// Directories and the disk descriptor are the pack's own
		// structure: a store over one would lose every name it holds.
		if fn.FV.FID.IsDirectory() || fn.FV.FID == disk.DescriptorFID {
			return fmt.Errorf("%q is a system file", name)
		}
		f = &s.f
		if err := s.fs.OpenInto(f, fn); err != nil {
			return fmt.Errorf("open %q failed", name)
		}
	} else {
		if f, err = s.fs.Create(name); err != nil {
			return errors.New("disk full")
		}
		if err := root.Insert(name, f.FN()); err != nil {
			return errors.New("directory full")
		}
	}

	// The last page of a file is always partial (see File.WritePage), so
	// n lays out as full interior pages plus a partial tail.
	full := n / disk.PageBytes
	lastLen := n % disk.PageBytes
	lastPN := disk.Word((full + 1) & 0xFFFF)

	// A shrinking store truncates first, so everything below is overwrite
	// or growth.
	oldLast := f.LastPN()
	if oldLast > lastPN {
		if err := f.Truncate(lastPN, lastLen); err != nil {
			return fmt.Errorf("truncate %q failed", name)
		}
		oldLast = lastPN
	}

	// Chained overwrites: the new file's interior pages (all full by
	// construction) that already exist on disk as interior pages.
	limit := lastPN - 1
	if oldLast-1 < limit {
		limit = oldLast - 1
	}
	pages := &s.pages
	pn := disk.Word(1)
	for pn <= limit {
		n := int(limit - pn + 1)
		if n > chainPages {
			n = chainPages
		}
		for i := 0; i < n; i++ {
			fillPage(&pages[i], words, int(pn)+i)
		}
		if err := f.WritePages(pn, pages[:n]); err != nil {
			return fmt.Errorf("write %q page %d failed", name, pn)
		}
		pn += disk.Word(n)
	}
	// Growth and the tail: each full write of the current last page
	// appends a fresh page, so the file extends one page per pass.
	for ; pn <= lastPN; pn++ {
		fillPage(&pages[0], words, int(pn))
		length := disk.PageBytes
		if pn == lastPN {
			length = lastLen
		}
		if err := f.WritePage(pn, &pages[0], length); err != nil {
			return fmt.Errorf("write %q page %d failed", name, pn)
		}
	}
	if err := f.Sync(); err != nil {
		return fmt.Errorf("sync %q failed", name)
	}
	return nil
}

// fillPage copies the pn-th (1-based) page of packed file words into buf,
// zero-padded.
func fillPage(buf *[disk.PageWords]disk.Word, words []ether.Word, pn int) {
	off := min((pn-1)*disk.PageWords, len(words))
	clear(buf[copy(buf[:], words[off:]):])
}

// unpackTotal reads the 32-bit total byte count a MsgEnd message carries.
func unpackTotal(msg []ether.Word) (int, bool) {
	if len(msg) < 3 {
		return 0, false
	}
	return int(msg[1]) | int(msg[2])<<16, true
}
