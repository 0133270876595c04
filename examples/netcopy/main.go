// Netcopy: two complete Altos on one ether exchange files through the
// standardized packet protocol (§1: "it is the representation of files on
// the disk and of packets on the network that are standardized", which is
// what lets machines in different programming environments interoperate).
// One machine serves its file system; the other fetches a file, edits it,
// and stores the result back — all poll-driven, single-user style.
//
// The wire is deliberately faulty: the medium drops, duplicates and
// corrupts packets at a healthy rate, and every transfer still completes
// intact, because the file protocol rides the reliable transport (pup). The
// fault counters printed at the end are the proof the faults were real.
package main

import (
	"fmt"
	"log"
	"os"
	"strings"

	"altoos"
)

func main() {
	wire := altoos.NewNetwork(nil)
	faults := wire.InjectFaults(altoos.FaultConfig{
		Seed:    1979,
		Drop:    altoos.FaultRate{Num: 1, Den: 12}, // ~8% of deliveries lost
		Dup:     altoos.FaultRate{Num: 1, Den: 40},
		Corrupt: altoos.FaultRate{Num: 1, Den: 40},
	})

	// The server machine, with a document on its pack.
	srvDrive, err := altoos.NewDrive(altoos.Diablo31(), 1, wire.Clock())
	if err != nil {
		log.Fatal(err)
	}
	if _, err := altoos.Format(srvDrive); err != nil {
		log.Fatal(err)
	}
	server, err := altoos.New(altoos.Config{Drive: srvDrive, Display: os.Stdout})
	if err != nil {
		log.Fatal(err)
	}
	w, err := server.CreateStream("paper.txt")
	if err != nil {
		log.Fatal(err)
	}
	if err := altoos.PutString(w, "files are built out of disk pages\n"); err != nil {
		log.Fatal(err)
	}
	if err := w.Close(); err != nil {
		log.Fatal(err)
	}

	sst, err := wire.Attach(1)
	if err != nil {
		log.Fatal(err)
	}
	srv := altoos.NewPageServer(server.FS, altoos.NewEndpoint(sst, altoos.TransportConfig{}))

	// The client machine, with its own pack and its own station.
	cliDrive, err := altoos.NewDrive(altoos.Diablo31(), 2, wire.Clock())
	if err != nil {
		log.Fatal(err)
	}
	if _, err := altoos.Format(cliDrive); err != nil {
		log.Fatal(err)
	}
	client, err := altoos.New(altoos.Config{Drive: cliDrive, Display: os.Stdout})
	if err != nil {
		log.Fatal(err)
	}
	cst, err := wire.Attach(2)
	if err != nil {
		log.Fatal(err)
	}
	cli := altoos.NewPageClient(altoos.NewEndpoint(cst, altoos.TransportConfig{}))
	if err := cli.Connect(1); err != nil {
		log.Fatal(err)
	}

	// Fetch: request, then alternate polls — the machine is single-user and
	// poll-driven, so the "concurrency" is explicit activity switching.
	if err := cli.Fetch("paper.txt"); err != nil {
		log.Fatal(err)
	}
	for !cli.Done() {
		if _, err := srv.Poll(); err != nil {
			log.Fatal(err)
		}
		if _, err := cli.Poll(); err != nil {
			log.Fatal(err)
		}
	}
	body, err := cli.Result()
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("fetched %d bytes: %q\n", len(body), strings.TrimSpace(string(body)))

	// Keep a local copy on the client's own pack.
	local, err := client.CreateStream("paper-copy.txt")
	if err != nil {
		log.Fatal(err)
	}
	if err := altoos.PutString(local, string(body)); err != nil {
		log.Fatal(err)
	}
	if err := local.Close(); err != nil {
		log.Fatal(err)
	}

	// Edit and store back under a new name.
	edited := string(body) + "every access checks the page label\n"
	if err := cli.Store("paper-v2.txt", []byte(edited)); err != nil {
		log.Fatal(err)
	}
	// A store is reliable now: poll both ends until the server's
	// confirmation comes back through the lossy wire.
	for !cli.Done() {
		if _, err := srv.Poll(); err != nil {
			log.Fatal(err)
		}
		if _, err := cli.Poll(); err != nil {
			log.Fatal(err)
		}
	}
	if _, err := cli.Result(); err != nil {
		log.Fatal(err)
	}

	// Prove it landed: read it on the server side.
	r, err := server.OpenStream("paper-v2.txt", altoos.ReadMode)
	if err != nil {
		log.Fatal(err)
	}
	back, err := altoos.ReadAllStream(r)
	if cerr := r.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("server now holds paper-v2.txt (%d bytes):\n%s", len(back), back)

	pkts, words := wire.Stats()
	fmt.Printf("wire: %d packets, %d words; simulated time %v\n",
		pkts, words, wire.Clock().Now().Round(1000))
	fs := faults.Stats()
	fmt.Printf("faults survived: %d dropped, %d duplicated, %d corrupted of %d deliveries — every byte intact\n",
		fs.Dropped, fs.Dupped, fs.Corrupted, fs.Judged)
}
