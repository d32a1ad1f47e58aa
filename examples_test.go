package past_test

import (
	"fmt"
	"math/rand"
	"time"

	"past"
)

// Runnable examples of the paper's three motivating scenarios, each on a
// simulated network with a fixed seed.

// Example_archive is the paper's backup and archival motivation ("obviates
// the need for physical transport of storage media to protect backup and
// archival data"). An archive is inserted with k=4 replicas, then a third
// of the network fails without warning: every file stays retrievable, and
// failure detection plus re-replication restores the replication factor.
func Example_archive() {
	const nodes, files, k = 40, 25, 4
	cfg := past.DefaultStorageConfig()
	cfg.K = k
	cfg.Capacity = 64 << 20
	nw, err := past.NewNetwork(past.NetworkConfig{
		N: nodes, Seed: 7, Storage: cfg,
		KeepAlive:   2 * time.Second,
		FailTimeout: 6 * time.Second,
	})
	if err != nil {
		panic(err)
	}
	var archived []past.FileID
	for i := range files {
		data := make([]byte, 16<<10)
		for j := range data {
			data[j] = byte(i + j)
		}
		ins, err := nw.Insert(i%nodes, nil, fmt.Sprintf("backup-%03d.tar", i), data, k)
		if err != nil {
			panic(err)
		}
		archived = append(archived, ins.FileID)
	}

	// "Nodes ... may silently leave the system without warning" (section 1).
	crashed := 0
	for i := 0; i < nodes && crashed < nodes/3; i += 3 {
		nw.Crash(i)
		crashed++
	}
	fmt.Printf("crashed %d of %d nodes\n", crashed, nodes)

	// With k=4 replicas on diverse nodes, every file keeps a live replica;
	// requests go through a live access point.
	live := func(i int) int {
		for nw.Down(i % nodes) {
			i++
		}
		return i % nodes
	}
	retrievable := 0
	for i, f := range archived {
		if _, err := nw.Lookup(live(i*11+1), f); err == nil {
			retrievable++
		}
	}
	fmt.Printf("retrievable at once: %d/%d\n", retrievable, files)

	// Keep-alives detect the failures and re-replication restores k copies.
	nw.RunFor(60 * time.Second)
	restored := 0
	for _, f := range archived {
		if len(nw.ReplicaHolders(f)) >= k {
			restored++
		}
	}
	fmt.Printf("back at k=%d after a minute: %d/%d\n", k, restored, files)
	// Output:
	// crashed 13 of 40 nodes
	// retrievable at once: 25/25
	// back at k=4 after a minute: 25/25
}

// Example_sharing is the paper's content-distribution motivation: a group
// of nodes publishes content, and "additional copies of popular files are
// cached in any PAST node to balance query load". A publisher inserts a
// catalog that clients fetch with a Zipf popularity, once with caching and
// once without.
func Example_sharing() {
	const nodes, files, fetches = 60, 30, 1000
	for _, caching := range []bool{true, false} {
		cfg := past.DefaultStorageConfig()
		cfg.K = 3
		cfg.Capacity = 32 << 20
		cfg.Caching = caching
		nw, err := past.NewNetwork(past.NetworkConfig{N: nodes, Seed: 11, Storage: cfg})
		if err != nil {
			panic(err)
		}
		var catalog []past.FileID
		for i := range files {
			ins, err := nw.Insert(0, nil, fmt.Sprintf("track-%02d.ogg", i), make([]byte, 8<<10), 3)
			if err != nil {
				panic(err)
			}
			catalog = append(catalog, ins.FileID)
		}
		rng := rand.New(rand.NewSource(5))
		zipf := rand.NewZipf(rng, 1.2, 1, files-1)
		hits, hops := 0, 0
		for range fetches {
			f := catalog[zipf.Uint64()]
			got, err := nw.Lookup(rng.Intn(nodes), f)
			if err != nil {
				panic(err)
			}
			if got.Cached {
				hits++
			}
			hops += got.Hops
		}
		fmt.Printf("caching %-5v cache hits %.0f%%, %.2f hops per fetch\n",
			caching, float64(hits)*100/fetches, float64(hops)/fetches)
	}
	// Output:
	// caching true  cache hits 52%, 0.99 hops per fetch
	// caching false cache hits 0%, 2.12 hops per fetch
}

// Example_malicious is the fault-tolerance argument of section 2.2: a
// quarter of the nodes accept messages and never forward them. With
// deterministic routing a retried lookup takes the same path, so retries
// recover nothing; with randomized routing they spread over other next
// hops and route around the attackers ("the query may have to be repeated
// several times by the client, until a route is chosen that avoids the bad
// node").
func Example_malicious() {
	const nodes, bad, lookups, tries = 100, 25, 80, 8
	for _, randomized := range []bool{false, true} {
		cfg := past.DefaultStorageConfig()
		cfg.K = 3
		cfg.Capacity = 32 << 20
		cfg.Caching = false
		nw, err := past.NewNetwork(past.NetworkConfig{N: nodes, Seed: 21, Storage: cfg, RandomizedRouting: randomized})
		if err != nil {
			panic(err)
		}
		// The files go in while every node is still honest.
		rng := rand.New(rand.NewSource(3))
		var ids []past.FileID
		for i := range 10 {
			ins, err := nw.Insert(rng.Intn(nodes), nil, fmt.Sprintf("doc-%d", i), make([]byte, 2048), 3)
			if err != nil {
				panic(err)
			}
			ids = append(ids, ins.FileID)
		}
		malicious := map[int]bool{}
		for len(malicious) < bad {
			if i := rng.Intn(nodes); !malicious[i] {
				malicious[i] = true
				nw.SetMalicious(i)
			}
		}
		first, eventual := 0, 0
		for i := range lookups {
			client := rng.Intn(nodes)
			for malicious[client] {
				client = rng.Intn(nodes)
			}
			for try := 1; try <= tries; try++ {
				if _, err := nw.Lookup(client, ids[i%len(ids)]); err == nil {
					if try == 1 {
						first++
					}
					eventual++
					break
				}
			}
		}
		fmt.Printf("randomized %-5v first try %.0f%%, within %d tries %.0f%%\n",
			randomized, float64(first)*100/lookups, tries, float64(eventual)*100/lookups)
	}
	// Output:
	// randomized false first try 82%, within 8 tries 82%
	// randomized true  first try 91%, within 8 tries 98%
}
