// Command pastctl is a PAST client: it joins an existing network as a
// (zero-contribution) node and performs insert, get and reclaim
// operations.
//
//	pastctl -join 127.0.0.1:7001 -broker-seed demo -card me.card insert report.pdf
//	pastctl -join 127.0.0.1:7001 -broker-seed demo -o report.pdf get <fileId>
//	pastctl -join 127.0.0.1:7001 -broker-seed demo -card me.card reclaim <fileId>
//
// The -card file persists the client's smartcard (identity + quota ledger)
// across invocations; it is created on first use. Reclaim only works with
// the card that inserted the file (section 2.1 of the paper).
package main

import (
	"errors"
	"flag"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"

	"past"
	"past/internal/seccrypt"
)

func main() { os.Exit(run()) }

// run is the whole command; every exit goes through its return so the
// deferred peer.Close runs on error paths too.
func run() int {
	var (
		join       = flag.String("join", "", "address of a PAST node to join via (required)")
		brokerSeed = flag.String("broker-seed", "", "the network's shared broker seed (required)")
		cardFile   = flag.String("card", "", "path to the client's persistent smartcard file")
		quota      = flag.Int64("quota", 1<<30, "quota for a newly created card")
		k          = flag.Int("k", 3, "replication factor for inserts")
		out        = flag.String("o", "", "output path for get (default: stdout)")
	)
	flag.Parse()
	args := flag.Args()
	if *join == "" || *brokerSeed == "" || len(args) != 2 {
		return usage()
	}
	op, arg := args[0], args[1]
	if op != "insert" && op != "get" && op != "reclaim" {
		return usage()
	}
	broker, err := past.DeriveBroker(*brokerSeed)
	if err != nil {
		return fail(err)
	}
	card, save, err := loadOrCreateCard(broker, *cardFile, *quota)
	if err != nil {
		return fail(err)
	}
	// The client joins as a node contributing no storage — per the paper,
	// nodes "optionally contribute storage" and pure clients need none.
	scfg := past.DefaultStorageConfig()
	scfg.K = *k
	scfg.Capacity = 0
	scfg.Caching = false
	peer, err := past.ListenPeer(past.PeerConfig{
		Card:      card,
		BrokerPub: broker.PublicKey(),
		Storage:   scfg,
	})
	if err != nil {
		return fail(err)
	}
	defer peer.Close()
	if err := peer.Join(*join); err != nil {
		return fail(fmt.Errorf("join via %s: %w", *join, err))
	}
	if err := do(peer, card, op, arg, *k, *out); err != nil {
		return fail(err)
	}
	if err := save(); err != nil {
		return fail(err)
	}
	return 0
}

// do performs one operation through the joined peer.
func do(peer *past.Peer, card *past.Smartcard, op, arg string, k int, out string) error {
	switch op {
	case "insert":
		data, err := os.ReadFile(arg)
		if err != nil {
			return err
		}
		res, err := peer.Insert(card, filepath.Base(arg), data, k)
		if err != nil {
			return err
		}
		fmt.Printf("fileId: %s\nreceipts: %d (diverted %d, retries %d)\nremaining quota: %d bytes\n",
			res.FileID, len(res.Receipts), res.Diverted, res.Retries, card.RemainingQuota())
	case "get":
		f, err := past.ParseFileID(arg)
		if err != nil {
			return err
		}
		res, err := peer.Lookup(f)
		if err != nil {
			return err
		}
		if out == "" {
			_, err = os.Stdout.Write(res.Data)
		} else {
			err = os.WriteFile(out, res.Data, 0o644)
		}
		if err != nil {
			return err
		}
		fmt.Fprintf(os.Stderr, "retrieved %d bytes in %d hops (cached=%v) from %s\n",
			len(res.Data), res.Hops, res.Cached, res.From.ID)
	case "reclaim":
		f, err := past.ParseFileID(arg)
		if err != nil {
			return err
		}
		res, err := peer.Reclaim(card, f)
		if err != nil {
			return err
		}
		fmt.Printf("freed %d bytes across %d receipts\nremaining quota: %d bytes\n",
			res.Freed, len(res.Receipts), card.RemainingQuota())
	}
	return nil
}

// loadOrCreateCard returns the client card plus a function persisting its
// updated quota ledger.
func loadOrCreateCard(broker *past.Broker, path string, quota int64) (*past.Smartcard, func() error, error) {
	noSave := func() error { return nil }
	if path == "" {
		card, err := broker.IssueCard(quota, 0, 0, nil)
		return card, noSave, err
	}
	var card *past.Smartcard
	data, err := os.ReadFile(path)
	switch {
	case err == nil:
		if card, err = seccrypt.ImportCard(data); err != nil {
			return nil, nil, fmt.Errorf("card file %s: %w", path, err)
		}
	case errors.Is(err, fs.ErrNotExist):
		if card, err = broker.IssueCard(quota, 0, 0, nil); err != nil {
			return nil, nil, err
		}
	default:
		// Unreadable is not absent: issuing a fresh identity here would
		// overwrite the card that owns every file inserted so far.
		return nil, nil, err
	}
	return card, func() error { return os.WriteFile(path, card.Export(), 0o600) }, nil
}

func usage() int {
	fmt.Fprintln(os.Stderr, `usage (flags come before the subcommand):
  pastctl -join <addr> -broker-seed <seed> [-card <file>] insert <path>
  pastctl -join <addr> -broker-seed <seed> [-o <path>] get <fileId>
  pastctl -join <addr> -broker-seed <seed> -card <file> reclaim <fileId>`)
	return 2
}

func fail(err error) int {
	fmt.Fprintf(os.Stderr, "pastctl: %v\n", err)
	return 1
}
