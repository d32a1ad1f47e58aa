package past_test

import (
	"testing"

	"past"
)

// TestLookupDetectsPostInsertMutation pins the zero-copy contract's
// failure mode: a caller who mutates the insert buffer after Insert
// (violating the immutable-after-Send rule) must get DETECTION — a
// content-hash mismatch on lookup — never silently corrupted bytes.
// This guards the client-side verification against ever being routed
// through the buffer-identity hash memo.
func TestLookupDetectsPostInsertMutation(t *testing.T) {
	nw, err := past.NewNetwork(past.NetworkConfig{N: 16, Seed: 11})
	if err != nil {
		t.Fatal(err)
	}
	data := []byte("the original content that must not be silently corrupted")
	ins, err := nw.Insert(0, nil, "probe.txt", data, 3)
	if err != nil {
		t.Fatal(err)
	}
	data[0] = 'X' // contract violation: mutate after handing the buffer over
	if _, err := nw.Lookup(5, ins.FileID); err == nil {
		t.Fatal("post-insert mutation went undetected: lookup returned corrupted bytes without error")
	}
}

// TestLookupDetectsMutationOfReturnedSlice is the same contract on the
// read side: a lookup's reply buffer is also the client node's cached
// copy, so a caller who writes to LookupResult.Data (past.go forbids it)
// and looks the file up again through the same node must get a
// content-hash mismatch, never the bytes they wrote.
func TestLookupDetectsMutationOfReturnedSlice(t *testing.T) {
	nw, err := past.NewNetwork(past.NetworkConfig{N: 16, Seed: 12})
	if err != nil {
		t.Fatal(err)
	}
	ins, err := nw.Insert(0, nil, "probe.txt", []byte("content a reader must not be able to rewrite in place"), 3)
	if err != nil {
		t.Fatal(err)
	}
	reader := -1
	for i := 0; i < nw.Len() && reader < 0; i++ {
		if got, err := nw.Lookup(i, ins.FileID); err != nil {
			t.Fatal(err)
		} else if got.From != nw.NodeRef(i) {
			reader = i // served by another node: the reply is now in i's cache
			got.Data[0] = 'X'
		}
	}
	if reader < 0 {
		t.Fatal("every node served the file to itself")
	}
	if got, err := nw.Lookup(reader, ins.FileID); err == nil {
		t.Fatalf("mutation of the returned slice went undetected: second lookup returned %q without error", got.Data)
	}
}
