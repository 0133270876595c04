package fileserver

import (
	"bytes"
	"errors"
	"slices"
	"testing"

	"altoos/internal/dir"
	"altoos/internal/disk"
	"altoos/internal/ether"
	"altoos/internal/file"
	"altoos/internal/pup"
	"altoos/internal/sim"
	"altoos/internal/trace"
)

// fixture builds a server machine and n client endpoints on one wire, every
// station recording into one recorder.
func fixture(t testing.TB, n int) (*ether.Network, *Server, []*Client, *trace.Recorder) {
	t.Helper()
	clock := sim.NewClock()
	wire := ether.New(clock)
	rec := trace.New(1 << 16)

	d, err := disk.NewDrive(disk.Diablo31(), 1, clock)
	if err != nil {
		t.Fatal(err)
	}
	fs, err := file.Format(d)
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
	sst.SetRecorder(rec)
	srv := NewServer(fs, pup.NewEndpoint(sst, pup.Config{}))
	clients := make([]*Client, n)
	for i := range clients {
		cst, err := wire.Attach(ether.Addr(2 + i))
		if err != nil {
			t.Fatal(err)
		}
		cst.SetRecorder(rec)
		clients[i] = NewClient(pup.NewEndpoint(cst, pup.Config{Seed: uint64(i)}))
		if err := clients[i].Connect(1); err != nil {
			t.Fatal(err)
		}
	}
	return wire, srv, clients, rec
}

// pump polls the server and every client until all clients are Done.
func pump(t *testing.T, srv *Server, clients []*Client) {
	t.Helper()
	for i := 0; i < 200000; i++ {
		if _, err := srv.Poll(); err != nil {
			t.Fatalf("server: %v", err)
		}
		done := true
		for _, c := range clients {
			if _, err := c.Poll(); err != nil {
				t.Fatalf("client: %v", err)
			}
			done = done && c.Done()
		}
		if done {
			return
		}
	}
	t.Fatal("transfers never completed")
}

// pattern builds deterministic test content.
func pattern(n, salt int) []byte {
	out := make([]byte, n)
	for i := range out {
		out[i] = byte(i*7 + salt)
	}
	return out
}

func TestStoreAndFetch(t *testing.T) {
	wire, srv, clients, _ := fixture(t, 1)
	c := clients[0]
	start := wire.Clock().Now()

	// A multi-page file: exercises the chained interior-page paths.
	want := pattern(5*disk.PageBytes+123, 1)
	if err := c.Store("alpha", want); err != nil {
		t.Fatal(err)
	}
	pump(t, srv, clients)
	if _, err := c.Result(); err != nil {
		t.Fatalf("store: %v", err)
	}

	if err := c.Fetch("alpha"); err != nil {
		t.Fatal(err)
	}
	pump(t, srv, clients)
	got, err := c.Result()
	if err != nil {
		t.Fatalf("fetch: %v", err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("fetched %d bytes, want %d; corrupted", len(got), len(want))
	}

	st := srv.Stats()
	if st.Fetches != 1 || st.Stores != 1 || st.Sessions != 1 {
		t.Fatalf("stats = %+v", st)
	}
	if st.BytesIn != int64(len(want)) || st.BytesOut != int64(len(want)) {
		t.Fatalf("byte stats = %+v, want %d each way", st, len(want))
	}
	if wire.Clock().Now() == start {
		t.Fatal("the round trip charged no simulated time")
	}
}

// TestSecondRequestWhileBusy: a client runs one transfer at a time. A second
// request before the first is done fails with ErrBusy and leaves the first
// intact; once Result has been read, the client takes the next request.
func TestSecondRequestWhileBusy(t *testing.T) {
	_, srv, clients, _ := fixture(t, 1)
	c := clients[0]
	want := pattern(disk.PageBytes+9, 3)
	if err := c.Store("a", want); err != nil {
		t.Fatal(err)
	}
	if err := c.Fetch("a"); !errors.Is(err, ErrBusy) {
		t.Fatalf("second request: got %v, want ErrBusy", err)
	}
	pump(t, srv, clients)
	if _, err := c.Result(); err != nil {
		t.Fatalf("store: %v", err)
	}
	if err := c.Fetch("a"); err != nil {
		t.Fatalf("request after Result: %v", err)
	}
	pump(t, srv, clients)
	if got, err := c.Result(); err != nil || !bytes.Equal(got, want) {
		t.Fatalf("fetch: %d bytes, %v", len(got), err)
	}
}

func TestOverwriteShrinkAndGrow(t *testing.T) {
	_, srv, clients, _ := fixture(t, 1)
	c := clients[0]

	store := func(name string, data []byte) {
		t.Helper()
		if err := c.Store(name, data); err != nil {
			t.Fatal(err)
		}
		pump(t, srv, clients)
		if _, err := c.Result(); err != nil {
			t.Fatalf("store: %v", err)
		}
	}
	fetch := func(name string) []byte {
		t.Helper()
		if err := c.Fetch(name); err != nil {
			t.Fatal(err)
		}
		pump(t, srv, clients)
		got, err := c.Result()
		if err != nil {
			t.Fatalf("fetch: %v", err)
		}
		return got
	}

	// Grow, shrink, and exact-page-boundary contents through the same name:
	// chained overwrites, one-page growth, and truncation all fire.
	cases := [][]byte{
		pattern(3*disk.PageBytes+10, 2),
		pattern(7*disk.PageBytes+499, 3),
		pattern(2*disk.PageBytes, 4),
		pattern(17, 5),
		{},
	}
	for i, want := range cases {
		store("beta", want)
		if got := fetch("beta"); !bytes.Equal(got, want) {
			t.Fatalf("case %d: fetched %d bytes, want %d", i, len(got), len(want))
		}
	}
}

func TestFetchMissingFile(t *testing.T) {
	_, srv, clients, _ := fixture(t, 1)
	c := clients[0]
	if err := c.Fetch("no-such-file"); err != nil {
		t.Fatal(err)
	}
	pump(t, srv, clients)
	if _, err := c.Result(); !errors.Is(err, ErrRemote) {
		t.Fatalf("got %v, want ErrRemote", err)
	}
}

func TestConcurrentSessionsOverLossyWire(t *testing.T) {
	const n = 4
	wire, srv, clients, rec := fixture(t, n)
	wire.InjectFaults(ether.FaultConfig{
		Seed:    5,
		Drop:    ether.Rate{Num: 1, Den: 12},
		Dup:     ether.Rate{Num: 1, Den: 40},
		Corrupt: ether.Rate{Num: 1, Den: 40},
	})

	// All clients store concurrently, then all fetch back.
	want := make([][]byte, n)
	for i, c := range clients {
		want[i] = pattern(2*disk.PageBytes+100*i+7, i)
		if err := c.Store("f"+string(rune('a'+i)), want[i]); err != nil {
			t.Fatal(err)
		}
	}
	pump(t, srv, clients)
	for i, c := range clients {
		if _, err := c.Result(); err != nil {
			t.Fatalf("client %d store: %v", i, err)
		}
	}
	for i, c := range clients {
		if err := c.Fetch("f" + string(rune('a'+i))); err != nil {
			t.Fatal(err)
		}
	}
	pump(t, srv, clients)
	for i, c := range clients {
		got, err := c.Result()
		if err != nil {
			t.Fatalf("client %d fetch: %v", i, err)
		}
		if !bytes.Equal(got, want[i]) {
			t.Fatalf("client %d: payload corrupted", i)
		}
	}
	if st := srv.Stats(); st.Sessions != n || st.Stores != n || st.Fetches != n {
		t.Fatalf("stats = %+v", st)
	}
	if rec.Counter("ether.drop") == 0 {
		t.Fatal("fault medium never dropped a packet; test proves nothing")
	}
	if rec.Counter("pup.retransmit") == 0 {
		t.Fatal("no retransmissions despite drops")
	}
}

func TestSessionSpanTraced(t *testing.T) {
	_, srv, clients, rec := fixture(t, 1)
	c := clients[0]
	if err := c.Store("gamma", pattern(100, 9)); err != nil {
		t.Fatal(err)
	}
	pump(t, srv, clients)
	if _, err := c.Result(); err != nil {
		t.Fatal(err)
	}
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 100000 && c.Conn().State() != pup.StateClosed; i++ {
		if _, err := srv.Poll(); err != nil {
			t.Fatal(err)
		}
		if _, err := c.Poll(); err != nil {
			t.Fatal(err)
		}
	}
	// Let the server notice the close and retire the session.
	for i := 0; i < 100; i++ {
		if _, err := srv.Poll(); err != nil {
			t.Fatal(err)
		}
	}
	if n := rec.Counter("fs.session.close"); n != 1 {
		t.Fatalf("fs.session.close = %d, want 1", n)
	}
	if st := srv.Stats(); st.Active != 0 {
		t.Fatalf("active sessions = %d, want 0", st.Active)
	}
}

// TestStoreRefusesSystemFiles stores over the root directory's and the
// disk descriptor's names. The server once confirmed such a store, and the
// root directory's pages then held file data: every name on the pack was
// lost, the stored file's own included.
func TestStoreRefusesSystemFiles(t *testing.T) {
	_, srv, clients, _ := fixture(t, 1)
	c := clients[0]
	for _, name := range []string{"SysDir.", "DiskDescriptor."} {
		if err := c.Store(name, pattern(100, 1)); err != nil {
			t.Fatal(err)
		}
		pump(t, srv, clients)
		if _, err := c.Result(); !errors.Is(err, ErrRemote) {
			t.Fatalf("store %q: %v, want ErrRemote", name, err)
		}
	}
	want := pattern(700, 2)
	if err := c.Store("after", want); err != nil {
		t.Fatal(err)
	}
	pump(t, srv, clients)
	if _, err := c.Result(); err != nil {
		t.Fatal(err)
	}
	if err := c.Fetch("after"); err != nil {
		t.Fatal(err)
	}
	pump(t, srv, clients)
	if got, err := c.Result(); err != nil || !bytes.Equal(got, want) {
		t.Fatalf("fetch after refused stores: %d bytes, %v", len(got), err)
	}
}

// TestPollServesDiskWorkInRotation pins the service rule: with every session
// holding a ready request, each Poll does the disk work of at most one
// session, the sessions take their turns in accept order from wherever the
// last Poll stopped, and a session retired mid-rotation neither skips nor
// repeats anyone.
func TestPollServesDiskWorkInRotation(t *testing.T) {
	const n = 4
	_, srv, clients, _ := fixture(t, n)
	want := pattern(3*disk.PageBytes+5, 2)
	if err := clients[0].Store("shared", want); err != nil {
		t.Fatal(err)
	}
	pump(t, srv, clients[:1])
	if _, err := clients[0].Result(); err != nil {
		t.Fatal(err)
	}
	if len(srv.sessions) != n {
		t.Fatalf("%d sessions, want %d", len(srv.sessions), n)
	}

	// rotation puts a fetch in every listed client's session, then polls
	// the server once per client and once more, and returns whom each poll
	// did disk work for (the remote address; 0 for none).
	rotation := func(cs []*Client) []ether.Addr {
		t.Helper()
		for _, c := range cs {
			if err := c.Fetch("shared"); err != nil {
				t.Fatal(err)
			}
			if _, err := c.Poll(); err != nil {
				t.Fatal(err)
			}
		}
		var served []ether.Addr
		for range len(cs) + 1 {
			before := srv.Stats().Fetches
			moved := map[ether.Addr]int64{}
			for _, ss := range srv.sessions {
				moved[ss.conn.Remote()] = ss.moved
			}
			if _, err := srv.Poll(); err != nil {
				t.Fatal(err)
			}
			var who ether.Addr
			for _, ss := range srv.sessions {
				if ss.moved != moved[ss.conn.Remote()] {
					if who != 0 {
						t.Fatalf("one poll served both %d and %d", who, ss.conn.Remote())
					}
					who = ss.conn.Remote()
				}
			}
			fetches := srv.Stats().Fetches - before
			if (who == 0 && fetches != 0) || (who != 0 && fetches != 1) {
				t.Fatalf("poll served %d fetches for session %d", fetches, who)
			}
			served = append(served, who)
		}
		pump(t, srv, cs)
		for _, c := range cs {
			if got, err := c.Result(); err != nil || !bytes.Equal(got, want) {
				t.Fatalf("fetch: %d bytes, %v", len(got), err)
			}
		}
		return served
	}
	// inTurn checks that served names every session once, each the one
	// accepted after the last, wrapping, and then a poll with no disk work.
	inTurn := func(served []ether.Addr) {
		t.Helper()
		order := make([]ether.Addr, len(srv.sessions))
		for i, ss := range srv.sessions {
			order[i] = ss.conn.Remote()
		}
		if served[len(served)-1] != 0 {
			t.Fatalf("served %v: a poll after every request was served still did disk work", served)
		}
		first := slices.Index(order, served[0])
		for i, who := range served[:len(order)] {
			if want := order[(first+i)%len(order)]; who != want {
				t.Fatalf("served %v, want a rotation of %v", served, order)
			}
		}
	}
	inTurn(rotation(clients))

	// Retire one session, then rotate through the rest.
	gone := clients[2]
	if err := gone.Close(); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 100000 && gone.Conn().State() != pup.StateClosed; i++ {
		if _, err := srv.Poll(); err != nil {
			t.Fatal(err)
		}
		if _, err := gone.Poll(); err != nil {
			t.Fatal(err)
		}
	}
	rest := []*Client{clients[0], clients[1], clients[3]}
	served := rotation(rest)
	if len(srv.sessions) != len(rest) {
		t.Fatalf("%d sessions after a close, want %d", len(srv.sessions), len(rest))
	}
	inTurn(served)
}
