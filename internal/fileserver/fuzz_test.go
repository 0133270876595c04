package fileserver

import (
	"errors"
	"fmt"
	"reflect"
	"strings"
	"testing"
	"time"

	"altoos/internal/dir"
	"altoos/internal/disk"
	"altoos/internal/ether"
	"altoos/internal/file"
	"altoos/internal/pup"
	"altoos/internal/sim"
)

// The message fuzz rig drives one server session straight through handle,
// on a small in-memory pack, and checks every reply against a model of the
// protocol built on the byte path's reference loops (bytepath_test.go).

// Record kinds of a fuzz input's message stream: the low three bits of a
// record's first byte.
const (
	fzStore   = iota // MsgStore, then a name spec
	fzFetch          // MsgFetch, then a name spec
	fzData           // an honest chunk: count (2 bytes), content seed
	fzDataRaw        // MsgData, count word, word count, raw words
	fzEnd            // MsgEnd with the total the model expects
	fzEndRaw         // MsgEnd with a raw 32-bit total
	fzDigest         // MsgDigest
	fzRaw            // any message: word count, raw words (opcode first)
)

// fuzzNames are the names a name spec byte below 0x80 picks: ordinary ones,
// the pack's own structure, the longest leader name and one past it, and
// the empty name.
var fuzzNames = []string{"a", "b.", "SysDir.", "DiskDescriptor.", strings.Repeat("L", file.MaxLeaderName), strings.Repeat("M", file.MaxLeaderName+1), ""}

// fuzzReader hands out a fuzz input's bytes; reads past the end are zero.
type fuzzReader struct{ in []byte }

func (r *fuzzReader) byte() byte {
	if len(r.in) == 0 {
		return 0
	}
	b := r.in[0]
	r.in = r.in[1:]
	return b
}

func (r *fuzzReader) word() ether.Word { return ether.Word(r.byte())<<8 | ether.Word(r.byte()) }

func (r *fuzzReader) words(n int) []ether.Word {
	out := make([]ether.Word, n)
	for i := range out {
		out[i] = r.word()
	}
	return out
}

// nameMsg builds a fetch or store request from a name spec: a byte below
// 0x80 picks a fuzzNames entry; otherwise its low bits count raw words that
// follow, length word included, which may not decode at all.
func (r *fuzzReader) nameMsg(op ether.Word) []ether.Word {
	b := r.byte()
	if b < 0x80 {
		return append([]ether.Word{op}, ether.PackString(fuzzNames[int(b)%len(fuzzNames)])...)
	}
	return append([]ether.Word{op}, r.words(int(b&0x7F))...)
}

// next decodes one message; model supplies the honest total for fzEnd.
func (r *fuzzReader) next(total int) []ether.Word {
	switch h := r.byte(); h & 7 {
	case fzStore:
		return r.nameMsg(MsgStore)
	case fzFetch:
		return r.nameMsg(MsgFetch)
	case fzData:
		count := int(r.word()) % (DataBytesPerMsg + 1)
		seed := r.byte()
		data := make([]byte, count)
		for i := range data {
			data[i] = byte(i*31) ^ seed
		}
		msg := refPackChunk(data)
		if h&0x80 != 0 && count%2 == 1 {
			msg[len(msg)-1] |= ether.Word(seed) | 1 // junk in the pad
		}
		return msg
	case fzDataRaw:
		count := r.word()
		return append([]ether.Word{MsgData, count}, r.words(int(r.byte())%(pup.MaxData-1))...)
	case fzEnd:
		return []ether.Word{MsgEnd, ether.Word(total & 0xFFFF), ether.Word(total >> 16)}
	case fzEndRaw:
		return []ether.Word{MsgEnd, r.word(), r.word()}
	case fzDigest:
		return []ether.Word{MsgDigest}
	default:
		return r.words(1 + int(r.byte())%pup.MaxData)
	}
}

// refUnpackString is UnpackString's byte loop before the codec.
func refUnpackString(w []ether.Word) (string, bool) {
	if len(w) == 0 {
		return "", false
	}
	n := int(w[0])
	if 1+(n+1)/2 > len(w) {
		return "", false
	}
	buf := make([]byte, n)
	for i := range buf {
		if i%2 == 0 {
			buf[i] = byte(w[1+i/2] >> 8)
		} else {
			buf[i] = byte(w[1+i/2])
		}
	}
	return string(buf), true
}

// refReplyBytes decodes a data reply with the reference loops: chunks, then
// an end marker whose total matches them.
func refReplyBytes(reply [][]ether.Word) ([]byte, error) {
	if len(reply) == 0 {
		return nil, errors.New("empty reply")
	}
	var out []byte
	for _, m := range reply[:len(reply)-1] {
		if m[0] != MsgData {
			return nil, fmt.Errorf("reply message %v inside the data", m)
		}
		b, err := refUnpackChunk(m)
		if err != nil {
			return nil, err
		}
		out = append(out, b...)
	}
	end := reply[len(reply)-1]
	if total, ok := unpackTotal(end); end[0] != MsgEnd || !ok || total != len(out) {
		return nil, fmt.Errorf("reply ends with %v after %d bytes", end, len(out))
	}
	return out, nil
}

// fuzzModel is what the byte path says the session holds.
type fuzzModel struct {
	storing   bool
	name      string
	buf       []byte
	confirmed map[string][]byte // stores answered MsgOK, by name
}

// fuzzRig is one server, its drive, and a session whose connection only
// carries flow ids: handle is called directly and replies are read off outq.
type fuzzRig struct {
	t   *testing.T
	srv *Server
	drv *disk.Drive
	ss  *session
}

func newFuzzRig(t *testing.T) *fuzzRig {
	g := disk.Diablo31()
	g.Cylinders = 12
	clock := sim.NewClock()
	wire := ether.New(clock)
	drv, err := disk.NewDrive(g, 1, clock)
	if err != nil {
		t.Fatal(err)
	}
	fs, err := file.Format(drv)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := dir.InitRoot(fs); err != nil {
		t.Fatal(err)
	}
	sst, err := wire.Attach(1)
	if err != nil {
		t.Fatal(err)
	}
	cst, err := wire.Attach(2)
	if err != nil {
		t.Fatal(err)
	}
	conn, err := pup.NewEndpoint(cst, pup.Config{}).Dial(1)
	if err != nil {
		t.Fatal(err)
	}
	return &fuzzRig{t: t, srv: NewServer(fs, pup.NewEndpoint(sst, pup.Config{})), drv: drv, ss: &session{conn: conn}}
}

// send hands msg to the session and returns the replies it queued.
func (rg *fuzzRig) send(msg []ether.Word) [][]ether.Word {
	rg.srv.handle(rg.ss, msg, 1)
	out := rg.ss.outq
	rg.ss.outq = nil
	return out
}

// expectError requires exactly one MsgError reply.
func (rg *fuzzRig) expectError(msg []ether.Word, reply [][]ether.Word) {
	if len(reply) != 1 || len(reply[0]) == 0 || reply[0][0] != MsgError {
		rg.t.Fatalf("%v: replies %v, want one MsgError", msg, reply)
	}
}

// expectNone requires no reply.
func (rg *fuzzRig) expectNone(msg []ether.Word, reply [][]ether.Word) {
	if len(reply) != 0 {
		rg.t.Fatalf("%v: replies %v, want none", msg, reply)
	}
}

// fetch asks for name and requires the reply to be data, and the bytes
// want when the model knows them.
func (rg *fuzzRig) fetch(msg []ether.Word, name string, want []byte, known bool) {
	reply := rg.send(msg)
	if len(reply) == 1 && reply[0][0] == MsgError {
		if known {
			rg.t.Fatalf("fetch %q: %v, want the %d bytes stored", name, reply, len(want))
		}
		return
	}
	got, err := refReplyBytes(reply)
	if err != nil {
		rg.t.Fatalf("fetch %q: %v", name, err)
	}
	if known && string(got) != string(want) {
		rg.t.Fatalf("fetch %q: %d bytes differ from the %d stored", name, len(got), len(want))
	}
}

// step feeds one message and checks the replies against the model.
func (rg *fuzzRig) step(m *fuzzModel, msg []ether.Word) {
	if len(msg) == 0 {
		rg.expectNone(msg, rg.send(msg))
		return
	}
	switch msg[0] {
	case MsgFetch:
		name, ok := refUnpackString(msg[1:])
		if !ok {
			rg.expectError(msg, rg.send(msg))
			return
		}
		want, known := m.confirmed[name]
		rg.fetch(msg, name, want, known)
	case MsgDigest:
		table, err := refReplyBytes(rg.send(msg))
		if err != nil {
			rg.t.Fatalf("digest: %v", err)
		}
		got, err := ParseDigests(table)
		if err != nil {
			rg.t.Fatalf("digest table: %v", err)
		}
		want, err := DigestTable(rg.srv.fs)
		if err != nil {
			rg.t.Fatal(err)
		}
		for i := range want {
			want[i].Written = want[i].Written.Truncate(time.Millisecond)
		}
		if len(got) != len(want) || (len(want) > 0 && !reflect.DeepEqual(got, want)) {
			rg.t.Fatalf("digest table parses to %+v, want %+v", got, want)
		}
	case MsgStore:
		name, ok := refUnpackString(msg[1:])
		if !ok {
			rg.expectError(msg, rg.send(msg))
			return
		}
		rg.expectNone(msg, rg.send(msg))
		m.storing, m.name, m.buf = true, name, m.buf[:0]
	case MsgData:
		reply := rg.send(msg)
		if !m.storing {
			rg.expectNone(msg, reply)
			return
		}
		b, err := refUnpackChunk(msg)
		if err != nil {
			rg.expectError(msg, reply)
			m.storing = false
			return
		}
		rg.expectNone(msg, reply)
		m.buf = append(m.buf, b...)
	case MsgEnd:
		writes := rg.drv.Stats().Writes
		reply := rg.send(msg)
		if !m.storing {
			rg.expectNone(msg, reply)
			return
		}
		m.storing = false
		if total, ok := unpackTotal(msg); !ok || total != len(m.buf) {
			rg.expectError(msg, reply)
			if w := rg.drv.Stats().Writes; w != writes {
				rg.t.Fatalf("%v: a mismatched total wrote %d sectors", msg, w-writes)
			}
			return
		}
		if len(reply) != 1 || (reply[0][0] != MsgOK && reply[0][0] != MsgError) {
			rg.t.Fatalf("%v: replies %v, want MsgOK or MsgError", msg, reply)
		}
		// A store that failed part way may have left anything behind.
		delete(m.confirmed, m.name)
		if reply[0][0] == MsgOK {
			m.confirmed[m.name] = append([]byte(nil), m.buf...)
			rg.fetch(append([]ether.Word{MsgFetch}, ether.PackString(m.name)...), m.name, m.buf, true)
		}
	default:
		rg.expectNone(msg, rg.send(msg))
	}
}

// checkDigestCodec feeds raw bytes to ParseDigests, and builds a table from
// them that ParseDigests must read back exactly, names up to the directory's
// 498 bytes included.
func checkDigestCodec(t *testing.T, raw []byte) {
	if digs, err := ParseDigests(raw); err == nil {
		var again []byte
		for _, d := range digs {
			again = appendDigest(again, d)
		}
		if back, err := ParseDigests(again); err != nil || !reflect.DeepEqual(back, digs) {
			t.Fatalf("re-serialized table parses to %+v, %v; want %+v", back, err, digs)
		}
	}
	r := &fuzzReader{in: raw}
	var want []Digest
	var table []byte
	for len(r.in) > 0 {
		d := Digest{
			Name:    strings.Repeat(string(rune('!'+r.byte()%90)), int(r.word())%499),
			Size:    int(r.word())<<16 | int(r.word()),
			CRC:     r.word(),
			Written: time.Duration(int64(r.word())<<16|int64(r.word())) * time.Millisecond,
			Clean:   r.byte()%2 == 1,
		}
		want = append(want, d)
		table = appendDigest(table, d)
	}
	if got, err := ParseDigests(table); err != nil || !reflect.DeepEqual(got, want) {
		t.Fatalf("table of %d digests parses to %d, %v", len(want), len(got), err)
	}
}

// fuzzInput encodes records for the seed corpus.
func fuzzInput(records ...[]byte) []byte {
	var in []byte
	for _, r := range records {
		in = append(in, r...)
	}
	return in
}

func FuzzFileserverMessages(f *testing.F) {
	data := func(count int, seed byte, junk bool) []byte {
		h := byte(fzData)
		if junk {
			h |= 0x80
		}
		return []byte{h, byte(count >> 8), byte(count), seed}
	}
	name := func(op, pick byte) []byte { return []byte{op, pick} }
	store := func(pick byte, chunks ...[]byte) []byte {
		return fuzzInput(name(fzStore, pick), fuzzInput(chunks...), []byte{fzEnd})
	}
	f.Add(store(0, data(DataBytesPerMsg, 1, false), data(DataBytesPerMsg, 2, false), data(77, 3, true)), []byte{})
	f.Add(fuzzInput(store(1, data(3, 4, true), data(10, 5, false), data(1, 6, true)), name(fzFetch, 1), []byte{fzDigest}), []byte{})
	f.Add(fuzzInput(name(fzStore, 0), data(40, 7, false), []byte{fzEndRaw, 0, 41, 0, 0}, name(fzFetch, 0)), []byte{})
	f.Add(fuzzInput(store(2, data(100, 8, false)), name(fzFetch, 2), store(3, data(5, 9, false)), []byte{fzDigest}), []byte{})
	f.Add(fuzzInput(store(4, data(600, 10, false)), store(5, data(2, 11, false)), store(6), []byte{fzDigest}), []byte{})
	f.Add(fuzzInput([]byte{fzDataRaw, 0x01, 0x00, 3, 1, 2, 3, 4, 5, 6}, name(fzStore, 0x83), []byte{0, 3, 'a', 'b', 0x63, 0}, []byte{fzDataRaw, 0, 9, 2, 1, 2, 3}), []byte{0xFF, 0x01})
	f.Add(fuzzInput([]byte{fzRaw, 2, 0, byte(MsgEnd), 0, 0, 0, 0}, []byte{fzDigest}), []byte{0, 0xF2, 'x', 0, 0, 0, 1, 0x12, 0x34, 0, 0, 0, 9, 1})
	f.Fuzz(func(t *testing.T, msgs, table []byte) {
		checkDigestCodec(t, table)
		rg := newFuzzRig(t)
		m := &fuzzModel{confirmed: map[string][]byte{}}
		r := &fuzzReader{in: msgs}
		for n := 0; len(r.in) > 0 && n < 64; n++ {
			rg.step(m, r.next(len(m.buf)))
		}
		for name, want := range m.confirmed {
			rg.fetch(append([]ether.Word{MsgFetch}, ether.PackString(name)...), name, want, true)
		}
	})
}
