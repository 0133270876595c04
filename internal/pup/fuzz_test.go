package pup

import (
	"errors"
	"slices"
	"testing"

	"altoos/internal/ether"
)

// Addresses of the packet-path fuzz rig: the listening endpoint under test,
// the honest peer holding the established connection's other side, and a
// stranger station that only ever injects.
const (
	fuzzSrv      ether.Addr = 1
	fuzzPeer     ether.Addr = 2
	fuzzStranger ether.Addr = 3
)

// fuzzHeader packs one injected packet's framing byte: which station sends
// it (bit 0: the stranger), its type (bits 1-3: the six packet types and two
// unknown ones), and whether its id word is overwritten with the
// established connection's id (bit 4).
func fuzzHeader(stranger bool, typ ether.Word, connID bool) byte {
	h := byte(typ-TypeOpen) & 7 << 1
	if stranger {
		h |= 1
	}
	if connID {
		h |= 0x10
	}
	return h
}

// encodeFuzzPacket appends one injected packet to a fuzz input: the framing
// byte, a word count, and the words big-endian.
func encodeFuzzPacket(in []byte, stranger bool, typ ether.Word, connID bool, words ...ether.Word) []byte {
	in = append(in, fuzzHeader(stranger, typ, connID), byte(len(words)))
	for _, w := range words {
		in = append(in, byte(w>>8), byte(w))
	}
	return in
}

// injected is one raw ether payload decoded from a fuzz input.
type injected struct {
	stranger bool
	typ      ether.Word
	connID   bool
	payload  []ether.Word
}

// decodeFuzzInput splits a fuzz input into injected packets. A packet's
// words run out with the input; missing bytes read as zero. At most 255
// words, so every injected packet fits MaxPayload.
func decodeFuzzInput(in []byte) []injected {
	var out []injected
	for len(in) >= 2 {
		h, n := in[0], int(in[1])
		in = in[2:]
		p := injected{stranger: h&1 != 0, typ: TypeOpen + ether.Word(h>>1&7), connID: h&0x10 != 0}
		p.payload = make([]ether.Word, n)
		for i := range p.payload {
			var hi, lo byte
			if len(in) > 0 {
				hi, in = in[0], in[1:]
			}
			if len(in) > 0 {
				lo, in = in[0], in[1:]
			}
			p.payload[i] = ether.Word(hi)<<8 | ether.Word(lo)
		}
		out = append(out, p)
	}
	return out
}

// honestMessage is the i-th message the honest peer sends: lengths sweep
// 0..MaxData, so full packets are in the mix, and the contents name their
// message and position.
func honestMessage(i int) []ether.Word {
	m := make([]ether.Word, (i*37)%(MaxData+1))
	for j := range m {
		m[j] = ether.Word(i<<8 ^ j)
	}
	return m
}

// FuzzPupPacket feeds a stream of raw ether payloads to a listening
// endpoint that also holds one side of an established connection, while the
// connection's honest peer sends a fixed series of messages in bursts. The
// injected packets come from a stranger station or from the honest peer's
// own station, optionally aimed at the established connection's id. A data
// packet from the peer on that id with a checksum-valid forged sequence
// number would be indistinguishable from honest data, so its sequence number
// is moved to one the connection already delivered: the transport must treat
// it as a duplicate. Properties:
//
//   - nothing panics;
//   - no packet the endpoint sends exceeds ether.MaxPayload;
//   - the words the established connection delivers are always an in-order
//     prefix of what the honest peer sent.
//
// Bursts of several packets sit in the receiver's queue at once, so any
// layer below Station.Send that kept a reference to the sender's reused send
// buffer would deliver a later message's words in place of an earlier one.
// Every delivered message, and every packet the stranger receives, goes back
// to the payload pool once checked, so a buffer the transport used after
// handing it on — or handed out twice — shows up the same way.
func FuzzPupPacket(f *testing.F) {
	f.Add([]byte{})
	var seed []byte
	seed = encodeFuzzPacket(seed, true, TypeOpen, false, 0x1234, 0, 0, 32, 0, 0, 9)
	seed = encodeFuzzPacket(seed, true, TypeData, false, 0x1234, 0, 0, 32, 0, 0, 9, 1, 2, 3)
	seed = encodeFuzzPacket(seed, false, TypeAck, true, 0, 0, 0xFFFF, 0, 0xFFFF, 0xFFFF, 0)
	seed = encodeFuzzPacket(seed, false, TypeData, true, 0, 3, 5, 1, 0xAAAA, 0x5555, 0, 42)
	f.Add(seed)
	f.Add(encodeFuzzPacket(nil, false, TypeClose, true, 0, 0, 0, 0, 0, 0, 0))
	f.Add(encodeFuzzPacket(nil, false, TypeOpen, true, 0, 0, 0, 0, 0, 0, 0))
	f.Add(encodeFuzzPacket(nil, false, TypeData, true, make([]ether.Word, 255)...))
	f.Add(encodeFuzzPacket(nil, true, TypeCloseAck+2, false, 1, 2))
	var acks []byte
	for i := 0; i < 12; i++ {
		acks = encodeFuzzPacket(acks, false, TypeAck, true, 0, 0, ether.Word(i), 0, ether.Word(1<<i), 0, 0)
	}
	f.Add(acks)
	f.Fuzz(func(t *testing.T, in []byte) {
		runPacketFuzz(t, decodeFuzzInput(in))
	})
}

// runPacketFuzz is one FuzzPupPacket execution. With nothing injected,
// every honest message must arrive.
func runPacketFuzz(t *testing.T, inject []injected) {
	net := ether.New(nil)
	var sts [3]*ether.Station
	for i, a := range []ether.Addr{fuzzSrv, fuzzPeer, fuzzStranger} {
		st, err := net.Attach(a)
		if err != nil {
			t.Fatal(err)
		}
		sts[i] = st
	}
	srvSt, peerSt, strangerSt := sts[0], sts[1], sts[2]
	srv := NewEndpoint(srvSt, Config{Seed: 1})
	peer := NewEndpoint(peerSt, Config{Seed: 2})
	srv.Listen()
	conn, err := peer.Dial(fuzzSrv)
	if err != nil {
		t.Fatal(err)
	}
	var acc *Conn
	for i := 0; acc == nil; i++ {
		if i == 1000 {
			t.Fatal("connection never established")
		}
		if _, err := srv.Poll(); err != nil {
			t.Fatal(err)
		}
		if _, err := peer.Poll(); err != nil {
			t.Fatal(err)
		}
		acc, _ = srv.Accept()
	}

	const messages = 24
	sent, delivered := 0, 0
	peerAlive := true
	for step := 0; step < 4000; step++ {
		if step < len(inject) {
			p := inject[step]
			payload := slices.Clone(p.payload)
			if p.connID && len(payload) > 0 {
				payload[0] = acc.id
			}
			from := peerSt
			if p.stranger {
				from = strangerSt
			}
			if !p.stranger && p.typ == TypeData && len(payload) > 1 && payload[0] == acc.id {
				payload[1] = acc.recvNext - 1 - payload[1]%sackSpan
			}
			if err := from.Send(ether.Packet{Dst: fuzzSrv, Type: p.typ, Payload: payload}); err != nil {
				t.Fatalf("injecting packet %d: %v", step, err)
			}
		} else if delivered == messages || !peerAlive {
			break
		}
		for peerAlive && sent < messages && conn.Avail() > 0 {
			if err := conn.Send(honestMessage(sent)); err != nil {
				t.Fatalf("honest send %d: %v", sent, err)
			}
			sent++
		}
		if _, err := srv.Poll(); err != nil {
			if errors.Is(err, ether.ErrTooBig) {
				t.Fatalf("endpoint sent an oversized packet: %v", err)
			}
			// A connection the injected traffic killed or left: the
			// endpoint reports it and the run goes on.
		}
		if peerAlive {
			if _, err := peer.Poll(); err != nil {
				// The injected traffic closed the established connection
				// under the peer, which gives up; what was delivered
				// before still has to be a prefix.
				peerAlive = false
			}
		}
		for {
			m, ok := acc.Recv()
			if !ok {
				break
			}
			if delivered >= sent || !slices.Equal(m, honestMessage(delivered)) {
				t.Fatalf("step %d: delivered message %d is %v, not the honest peer's (%d sent)", step, delivered, m, sent)
			}
			ether.Free(m)
			delivered++
		}
		for {
			p, ok := strangerSt.Recv()
			if !ok {
				break
			}
			if len(p.Payload) > ether.MaxPayload {
				t.Fatalf("endpoint sent a %d-word payload", len(p.Payload))
			}
			ether.Free(p.Payload)
		}
	}
	if len(inject) == 0 && delivered != messages {
		t.Fatalf("clean run delivered %d of %d messages", delivered, messages)
	}
}
