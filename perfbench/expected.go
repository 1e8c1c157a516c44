package main

// Committed reference outputs. Every one is a pure function of the
// simulated machine and its fixed inputs: a change that only makes the
// simulator faster leaves all of them bit-identical, and a change that
// moves one has changed what the simulator computes.
const (
	// SHA-256 of the Figure 3 and Figure 4 renderings at 1 vCPU.
	fig3Digest = "920da47fb9f79cf60428ac528ea105336a5d44274186aed7d066d7aefc00451b"
	fig4Digest = "f4b595a77faf1f4a22b6dcc9712eff318ffb6c891d461161ec02ce3df660a7c2"
	// Guest instructions retired and simulated cycles of one warm
	// fig3+fig4 pass (the machines already booted).
	figuresPassRetired = 6301080
	figuresPassCycles  = 17466284

	// committedCampaignSeed is the mutation seed whose campaign matrix
	// rendering is pinned by campaignDigest (2 vCPUs, all four levels,
	// campaignMutations strikes per cell).
	committedCampaignSeed = 1
	campaignDigest        = "70c8800f011782c376303dc6aa62fc738dff1977152c2f8424f638c888a4087c"
)
