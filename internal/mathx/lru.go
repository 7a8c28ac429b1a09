package mathx

import "cmp"

// OldestKey returns the key of m's least-recently-used entry: the one
// whose lastUse is smallest, ties broken by the lowest key, so the victim
// is the same whatever order the map is walked in. ok is false when m is
// empty. It is a full scan: the LRU caches that call it (the cluster's
// KV-block index, the engine's and host tier's prefix caches) evict
// rarely, and a heap re-keyed on every touch costs their hot insert path
// far more than the scan costs eviction.
func OldestKey[K, T cmp.Ordered, V any](m map[K]V, lastUse func(V) T) (victim K, ok bool) {
	var victimT T
	//diffkv:allow maprange -- min-scan with total-order tie-break (lastUse, then lowest key): same victim whatever the walk order
	for k, v := range m {
		if t := lastUse(v); !ok || t < victimT || (t == victimT && k < victim) {
			victim, victimT, ok = k, t, true
		}
	}
	return victim, ok
}
