package scenario

import "testing"

// TestGoldenDigests pins the SHA-256 trace digests of a diverse slice of
// (scenario, seed) cells (see bench/golden_digests.tsv for the full
// table; regenerate with `minsync-bench -digests`).
//
// Any kernel, network, trace or scenario change that perturbs the schedule
// — event ordering, RNG draw order, trace encoding — fails this test
// loudly. That is the point: determinism is the refactor contract, and
// "same seed ⇒ same digest" must survive every storage/layout change. If a
// change intentionally alters the schedule (new event source, different
// draw order), re-record the table and say so in the commit.
//
// Re-recorded once when digestTrace switched from hashing rendered text
// lines to the binary per-event tuple encoding (see digestTrace in
// run.go). The event *schedules* were verified byte-identical across
// that switch — every pre-switch row was green immediately before the
// encoding change landed — so the drift is purely the hash input
// format, not the kernel. The rb-coalesce rows pin the coalesced relay
// path (vector frames, hash indirection, pull resolution) under the
// same contract.
//
// Log and KV rows were re-recorded once more when the log engine became
// demand-paced (an instance opens only for unbatched pending commands or
// to join a peer's instance): every row whose schedule held an instance
// opened without work moved. The single-shot rows, which never run the
// log engine, are byte-identical across that change.
func TestGoldenDigests(t *testing.T) {
	cases := []struct {
		name   string
		seed   int64
		digest string
	}{
		{"baseline-sync", 1, "61c6015d700bff58e2151f10f3eb1473cd73463cf90bef3593fb3c264180e33c"},
		{"baseline-sync", 7, "decb8441b8b3447f83e2ca48bf9b28fe73afb2fb7efffbd8b4d5e481110a3d83"},
		{"sync-spam", 1, "59b252ae02ccf66fa193f7ad2d2da06112475a91217cb52fd4b9ae938de3926c"},
		{"sync-random-byz", 1, "c3caaea7d9f8c3307724ad6fe0d511ce17bd133a2d3fc02e46f13b5275c47043"},
		{"async-safety", 1, "62a7966da591ba817a828cf6d964d54ea4841481da1c831e1d112c550917d2f5"},
		{"jitter-classes", 1, "76980c9caef159cb6a8953ff03395836bc8a06df0c21d60d582258ed098a7282"},
		{"bisource-minimal", 7, "aeb3400e2a94228d7bac241a73d78707b67601256aa52d4fe5e9ebd5284d04b3"},
		{"bisource-splitter", 1, "0ea09dea1d367ffeea402a135044afd3bfe208c8f9c68d18af98b3a90223ac4b"},
		{"partition-heal", 7, "7a23e5f065fc3add623eac9fbe70fc4c677d2742dd9684bfb19f1f88ec726303"},
		{"botmode-many-values", 1, "d8401c45cef010c6630dab49c3f8d78658ce9d0ac956ed24d478c04ebcf93aad"},
		{"log-baseline", 1, "9521137f205719d1267ada7b2ef3fb00417a885fda491e88ef8708c9585f0f71"},
		{"log-deep-pipeline", 7, "b2ad046d0c5a44324a2618686df3d576c3ebe20ca508560df6d7a71b0468fa0f"},
		// KV-service rows, recorded when the state-machine layer landed.
		// Their digests additionally cover per-replica state digests and
		// the snapshot log (see runKV), so session semantics, snapshot
		// determinism and compaction scheduling are all pinned here.
		{"kv-mixed", 1, "1a454948cc4ab0e915fa3982282ac47972ba669430477aadb1bf82fb6c1d1c8e"},
		{"kv-sessions", 1, "72d306649ab14f0c35660a8ae269d47f2014d3eb56b99f116bb453410d2a8074"},
		{"kv-sessions", 7, "63fc92f120dcd65e49f81d72b7ab3555db6508c58b10b029f62f024fd72053df"},
		{"kv-snapshot-recover", 1, "b3ee2dc7cc335be0af413a8f2cbaadf4a87f91d3c121d34a8991029805b2bf9c"},
		{"kv-long-compaction", 7, "a9b48d34d5e527ad368975486b4006d7206bbf8fe6e000207a6547fedf401bf4"},
		// Snapshot-state-transfer rows, recorded when the transfer
		// subsystem landed. Their digests additionally cover the
		// SNAP_REQ/SNAP_RESP traffic, the stall-probe schedule and the
		// laggard's install boundary, so the whole transfer protocol's
		// schedule is pinned here. All pre-transfer rows above are
		// byte-identical to their previous recordings (transfer only
		// activates where it is enabled).
		{"kv-lag-transfer", 1, "6e6d82f862c8a1f449a712b341bf455bd7c93f1ca198893088650e2b9801821c"},
		{"kv-lag-transfer", 7, "63f609e8c6156d1dc5341b39da5dfd7c987a6e96ccdfe0f2ba17834e8e2cd623"},
		{"kv-lag-transfer-n7", 1, "2b225e87f9ff7883662c9bff20a8a6edafd76fa33f38caf0e621550b1b68c9e3"},
		// Coalesced-relay rows, recorded when the echo/ready coalescing
		// subsystem landed. Coalescing stays OFF in every row above —
		// those schedules never see a vector frame — so these four rows
		// are the determinism pin for the relay itself: flush-quantum
		// alignment, vector encode order, hash parking and the pull
		// exchange, including one cell under the hash-equivocation
		// adversary.
		{"rb-coalesce-async", 1, "b71560cb3851b60dc9266ff9595481c22874b615998e3dc8ee0cce0eba1792fb"},
		{"rb-coalesce-bisource", 7, "755808ca2688552467213d93c496e0c8b8b97eabfa7a79acfcb4c2bed6a12373"},
		{"rb-coalesce-partition", 1, "3a2d1d5ee555ea231aba2bdd965eef05fe76282f7da925c28e0a8b9a5ed5b075"},
		{"rb-coalesce-hashspam", 1, "fe4a9c2de791b82add0f4f807c3fdef8826d901f1fa49c64de730c12f4890fad"},
		// Durable-storage rows, recorded when the persistence subsystem
		// landed. The crash-restart rows pin the full power-cycle
		// choreography (fsync'd WAL replay, boot from snapshot + suffix,
		// zero-transfer reconvergence through t+1 DECIDE quorums); the
		// chunk-loss row pins the chunked transfer protocol end to end —
		// manifest corroboration, windowed range requests, the stalled-
		// download abandon path and re-corroboration under frame loss.
		{"kv-crash-restart", 1, "75068f28f42951c21076ab09caf70f70d48bd35def4e9467f952d4f9f8f249b2"},
		{"kv-crash-restart", 7, "e9cc3b8fcb9608a6b1872f73b2b771a8eb45d821c904bf647baf156f62b45319"},
		{"kv-crash-restart-n7", 1, "8d823d221640237f3fae9dac656ec86be005db6a7b5977e8d8e1066c95714ab0"},
		{"transfer-chunk-loss", 1, "dc6339485356caf05724920dcc9a6fa3e428d5aabf765f5feb03958df9a3477b"},
		{"transfer-chunk-loss", 7, "4742b829b67c05e7b8b038787fde5664249f0fd0432aa50b20f69666b2212455"},
		// Quiet-rejoin rows, recorded when the log engine became demand-
		// paced: a crash-restarted replica reboots behind a drained
		// cluster that runs no instances, notices the gap through its own
		// re-submitted work, and converges through a snapshot transfer.
		{"kv-quiet-rejoin", 1, "57ad29156c4203b7cf80027954f310c22b5f9136340289326adced8d40d4a8ad"},
		{"kv-quiet-rejoin", 7, "e53af9c79d94587cab2d6b795d7d3c104d301d198a410af2d040b7eb06568e9c"},
	}
	for _, tc := range cases {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			t.Parallel()
			s, ok := Get(tc.name)
			if !ok {
				t.Fatalf("scenario %q not registered", tc.name)
			}
			o, err := Run(s, tc.seed)
			if err != nil {
				t.Fatal(err)
			}
			if o.Digest != tc.digest {
				t.Errorf("digest drifted for (%s, seed %d):\n  got  %s\n  want %s\nthe kernel refactor contract is byte-identical schedules — see the test comment",
					tc.name, tc.seed, o.Digest, tc.digest)
			}
		})
	}
}
