package pup

import (
	"testing"

	"altoos/internal/ether"
)

// TestDataSendAllocatesOnlyTheWireCopy pins the cost of putting a data
// packet on the wire: the header and data are built in the endpoint's send
// buffer, so the one allocation is Station.Send's copy of the payload.
func TestDataSendAllocatesOnlyTheWireCopy(t *testing.T) {
	_, srv, cli, _ := pair(t, Config{})
	conn, err := cli.Dial(1)
	if err != nil {
		t.Fatal(err)
	}
	pump(t, srv, cli, 1000, func() bool { return conn.State() == StateOpen })
	data := make([]ether.Word, MaxData)
	for i := range data {
		data[i] = ether.Word(i)
	}
	seq := uint16(0)
	send := func() {
		if err := cli.sendPacket(conn, TypeData, seq, 7, data); err != nil {
			t.Fatal(err)
		}
		seq++
		if _, ok := srv.st.Recv(); !ok {
			t.Fatal("server station received nothing")
		}
	}
	for i := 0; i < 64; i++ {
		send()
	}
	const batch = 64
	if a := testing.AllocsPerRun(20, func() {
		for i := 0; i < batch; i++ {
			send()
		}
	}); a != batch {
		t.Errorf("%d data-packet sends allocate %v times, want %d", batch, a, batch)
	}
}
