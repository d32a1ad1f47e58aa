package workload

import "past/internal/id"

// ClientMux models a client population far larger than the simulated
// network — the paper's regime of millions of users storing into a
// many-thousand-node overlay — without materializing per-client state.
// Clients are purely logical: every quantity (which client issues request
// t, which overlay node it enters at, which key it touches) is computed
// by hashing, so a million-user workload costs 16 bytes regardless of
// population, and two runs with the same seed replay identically.
type ClientMux struct {
	// Population is the number of logical clients.
	Population int64
	seed       uint64
}

// NewClientMux creates a multiplexer over the given population.
func NewClientMux(population int64, seed int64) *ClientMux {
	if population <= 0 {
		population = 1
	}
	return &ClientMux{Population: population, seed: uint64(seed) * 0x9E3779B97F4A7C15}
}

// mix is the splitmix64 finalizer over the mux seed and two words.
func (m *ClientMux) mix(a, b uint64) uint64 {
	z := m.seed ^ a*0xBF58476D1CE4E5B9 ^ b*0x94D049BB133111EB
	z ^= z >> 30
	z *= 0xBF58476D1CE4E5B9
	z ^= z >> 27
	z *= 0x94D049BB133111EB
	return z ^ z>>31
}

// Client returns which logical client issues the t-th request, uniform
// over the population.
func (m *ClientMux) Client(t uint64) int64 {
	return int64(m.mix(1, t) % uint64(m.Population))
}

// EntryNode folds a client onto its overlay entry point among n nodes.
// A client always enters through the same node — in a deployment it
// would run (or be configured with) a nearby PAST node — so request
// locality per client is stable across the run.
func (m *ClientMux) EntryNode(client int64, n int) int {
	return int(m.mix(2, uint64(client)) % uint64(n))
}

// Key returns the client's req-th lookup/insert key, an independent
// per-client stream over the id space.
func (m *ClientMux) Key(client int64, req uint64) id.Node {
	return id.Rand(m.mix(uint64(client)<<20|3, req))
}
