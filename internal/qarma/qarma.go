// Package qarma implements the QARMA-64 tweakable block cipher (R. Avanzi,
// "The QARMA Block Cipher Family", IACR ToSC 2017). QARMA is the reference
// pointer-authentication-code (PAC) algorithm of the ARMv8.3-A pointer
// authentication extension: the PAC inserted into the unused bits of an
// AArch64 pointer is a truncation of QARMA-64 applied to the pointer under a
// 128-bit key, with the PAuth modifier as the tweak.
//
// QARMA is a three-stage reflection cipher: r forward rounds, a keyed
// pseudo-reflector, and r backward rounds that are the functional inverses of
// the forward rounds. All building blocks (the σ1 S-box, the MixColumns-like
// matrix M, the cell permutation τ) are involutions, which is what makes the
// reflective construction work. This implementation provides both directions;
// Decrypt is the exact inverse of Encrypt, which the package tests verify
// exhaustively and property-based.
//
// The nibble-wise functions below (subCells, shuffleCells, mixColumns,
// updateTweak) are the definition of the cipher. Encrypt and Decrypt do not
// call them: every layer is GF(2)-linear apart from σ1, so each linear layer
// is tabulated byte by byte at package initialisation (eight lookups and
// XORs per application) and σ1 becomes a 256-entry byte S-box. The tests
// keep a nibble-wise reference Encrypt and check the tables against it.
//
// The instantiation here follows the QARMA-64-σ1 parameter set with r
// configurable (the ARM reference PAC uses a 5-round variant). Round
// constants are the π-derived constants of the QARMA paper.
package qarma

// Rounds is the number of forward (and hence also backward) rounds. The
// QARMA paper recommends r = 7 for QARMA-64; the ARMv8.3 ComputePAC
// reference instantiation uses a 5-round variant. Five rounds is the default
// used by package pac.
const DefaultRounds = 5

// maxRounds is the largest round count New accepts (the round constants
// run out after c7).
const maxRounds = 8

// alpha is the reflector constant α of the QARMA paper.
const alpha = 0xC0AC29B7C97C50DD

// roundConst holds the π-derived round constants c0..c7.
var roundConst = [maxRounds]uint64{
	0x0000000000000000,
	0x13198A2E03707344,
	0xA4093822299F31D0,
	0x082EFA98EC4E6C89,
	0x452821E638D01377,
	0xBE5466CF34E90C6C,
	0x3F84D5B5B5470917,
	0x9216D5D98979FB1B,
}

// sigma1 is the σ1 S-box of the QARMA paper (an involution on 4-bit cells).
var sigma1 = [16]byte{0xA, 0xD, 0xE, 0x6, 0xF, 0x7, 0x3, 0x5, 0x9, 0x8, 0x0, 0xC, 0xB, 0x1, 0x2, 0x4}

// tau is the cell permutation τ: output cell i takes input cell tau[i].
var tau = [16]int{0, 11, 6, 13, 10, 1, 12, 7, 5, 14, 3, 8, 15, 4, 9, 2}

// tauInv is the inverse of tau. It and the tables below are package-level
// initializers rather than init() work: Go orders initializers by their
// dependencies, so a table can never be built from an inverse that is not
// filled in yet, whatever the file order.
var tauInv = invert(tau)

// tweakPerm is the tweak cell permutation h.
var tweakPerm = [16]int{6, 5, 14, 15, 0, 1, 2, 3, 7, 12, 13, 4, 8, 9, 10, 11}

// lfsrCells lists the tweak cells to which the ω LFSR is applied each round.
var lfsrCells = [4]int{0, 1, 3, 4}

// invert returns the inverse of the cell permutation p.
func invert(p [16]int) [16]int {
	var inv [16]int
	for i, v := range p {
		inv[v] = i
	}
	return inv
}

// Key is a 128-bit QARMA key, split into the whitening half W0 and the core
// half K0 as in the QARMA paper. An ARMv8.3 PAuth key register pair
// (APxKeyHi_EL1, APxKeyLo_EL1) maps onto (W0, K0).
type Key struct {
	W0 uint64
	K0 uint64
}

// Cipher is a QARMA-64 instance with a fixed key and round count. It holds
// no pointers, so it can be embedded and re-keyed by value without
// allocating.
type Cipher struct {
	rounds int
	w0, w1 uint64 // whitening keys
	k0     uint64 // core key
	// k1 is τ⁻¹(k0 ⊕ α). The keyed reflector τ⁻¹(M(τ(x)) ⊕ k0 ⊕ α)
	// is then reflTab(x) ⊕ k1: one table and one XOR.
	k1 uint64
}

// New returns a QARMA-64 cipher for key k with the given number of forward
// rounds. New panics if rounds is not in [3, 8] (the supported schedule of
// round constants).
func New(k Key, rounds int) *Cipher {
	c := Make(k, rounds)
	return &c
}

// Make is New returning the cipher by value, for callers that keep it in
// place (package pac re-keys on every key-register write).
func Make(k Key, rounds int) Cipher {
	if rounds < 3 || rounds > maxRounds {
		panic("qarma: rounds out of range [3, 8]")
	}
	return Cipher{
		rounds: rounds,
		w0:     k.W0,
		w1:     orthoW(k.W0),
		k0:     k.K0,
		k1:     tauInvTab.apply(k.K0 ^ alpha),
	}
}

// orthoW derives w1 from w0: o(x) = (x >>> 1) XOR (x >> 63).
func orthoW(x uint64) uint64 {
	return (x>>1 | x<<63) ^ (x >> 63)
}

// cells unpacks a 64-bit block into 16 nibbles, cell 0 being the most
// significant nibble (the convention of the QARMA paper).
func cells(x uint64) [16]byte {
	var c [16]byte
	for i := 0; i < 16; i++ {
		c[i] = byte(x>>(60-4*i)) & 0xF
	}
	return c
}

// pack is the inverse of cells.
func pack(c [16]byte) uint64 {
	var x uint64
	for i := 0; i < 16; i++ {
		x |= uint64(c[i]&0xF) << (60 - 4*i)
	}
	return x
}

// subCells applies the σ1 S-box to every cell of the state.
func subCells(x uint64) uint64 {
	var y uint64
	for i := 0; i < 64; i += 4 {
		y |= uint64(sigma1[(x>>i)&0xF]) << i
	}
	return y
}

// shuffleCells applies the cell permutation τ.
func shuffleCells(x uint64) uint64 {
	c := cells(x)
	var d [16]byte
	for i := 0; i < 16; i++ {
		d[i] = c[tau[i]]
	}
	return pack(d)
}

// shuffleCellsInv applies τ⁻¹.
func shuffleCellsInv(x uint64) uint64 {
	c := cells(x)
	var d [16]byte
	for i := 0; i < 16; i++ {
		d[i] = c[tauInv[i]]
	}
	return pack(d)
}

// rotNibble rotates a 4-bit cell left by n.
func rotNibble(v byte, n uint) byte {
	v &= 0xF
	return byte((v<<n | v>>(4-n)) & 0xF)
}

// mixColumns multiplies the state, viewed as a 4x4 cell matrix in row-major
// order, by the involutory almost-MDS matrix M = circ(0, ρ¹, ρ², ρ¹), where
// ρ is a one-bit left rotation of a cell. Columns of the matrix are the
// state columns c, c+4, c+8, c+12.
func mixColumns(x uint64) uint64 {
	c := cells(x)
	var d [16]byte
	for col := 0; col < 4; col++ {
		a0 := c[col]
		a1 := c[col+4]
		a2 := c[col+8]
		a3 := c[col+12]
		d[col] = rotNibble(a1, 1) ^ rotNibble(a2, 2) ^ rotNibble(a3, 1)
		d[col+4] = rotNibble(a0, 1) ^ rotNibble(a2, 1) ^ rotNibble(a3, 2)
		d[col+8] = rotNibble(a0, 2) ^ rotNibble(a1, 1) ^ rotNibble(a3, 1)
		d[col+12] = rotNibble(a0, 1) ^ rotNibble(a1, 2) ^ rotNibble(a2, 1)
	}
	return pack(d)
}

// lfsr applies the ω LFSR to a cell: (b3,b2,b1,b0) → (b0⊕b1, b3, b2, b1).
func lfsr(v byte) byte {
	b0 := v & 1
	b1 := (v >> 1) & 1
	return (v >> 1) | ((b0 ^ b1) << 3)
}

// updateTweak advances the tweak by one round: cell permutation h followed
// by the ω LFSR on cells 0, 1, 3 and 4.
func updateTweak(t uint64) uint64 {
	c := cells(t)
	var d [16]byte
	for i := 0; i < 16; i++ {
		d[i] = c[tweakPerm[i]]
	}
	for _, i := range lfsrCells {
		d[i] = lfsr(d[i])
	}
	return pack(d)
}

// table is a GF(2)-linear map on 64-bit blocks tabulated byte by byte:
// the image of x is the XOR of t[j][byte j of x] over the eight bytes.
type table [8][256]uint64

// tabulate builds the table of the linear map f.
func tabulate(f func(uint64) uint64) table {
	var t table
	for j := range t {
		for b := range t[j] {
			t[j][b] = f(uint64(b) << (8 * j))
		}
	}
	return t
}

// apply evaluates the tabulated map at x.
func (t *table) apply(x uint64) uint64 {
	return t[0][byte(x)] ^ t[1][byte(x>>8)] ^ t[2][byte(x>>16)] ^ t[3][byte(x>>24)] ^
		t[4][byte(x>>32)] ^ t[5][byte(x>>40)] ^ t[6][byte(x>>48)] ^ t[7][byte(x>>56)]
}

// byteSbox tabulates σ1 on both cells of a byte.
func byteSbox() [256]byte {
	var s [256]byte
	for b := range s {
		s[b] = byte(subCells(uint64(b)))
	}
	return s
}

// The tables Encrypt and Decrypt run on, each derived from the nibble-wise
// definition above: five 16 KiB linear tables and a 256-byte S-box.
var (
	// sbox is σ1 on both cells of a byte.
	sbox = byteSbox()
	// fwdTab is M∘τ, the diffusion layer of a forward round.
	fwdTab = tabulate(func(x uint64) uint64 { return mixColumns(shuffleCells(x)) })
	// bwdTab is τ⁻¹∘M, the diffusion layer of a backward round.
	bwdTab = tabulate(func(x uint64) uint64 { return shuffleCellsInv(mixColumns(x)) })
	// reflTab is τ⁻¹∘M∘τ, the reflector without its key.
	reflTab = tabulate(func(x uint64) uint64 { return shuffleCellsInv(mixColumns(shuffleCells(x))) })
	// tweakTab is the tweak update, h then ω.
	tweakTab = tabulate(updateTweak)
	// tauInvTab is τ⁻¹ alone, for the reflector key: the kernel re-keys
	// on every entry and exit, so keying is as hot as enciphering.
	tauInvTab = tabulate(shuffleCellsInv)
)

// sub applies σ1 to every cell of x.
func sub(x uint64) uint64 {
	return uint64(sbox[byte(x)]) | uint64(sbox[byte(x>>8)])<<8 |
		uint64(sbox[byte(x>>16)])<<16 | uint64(sbox[byte(x>>24)])<<24 |
		uint64(sbox[byte(x>>32)])<<32 | uint64(sbox[byte(x>>40)])<<40 |
		uint64(sbox[byte(x>>48)])<<48 | uint64(sbox[byte(x>>56)])<<56
}

// crypt is the reflection circuit Encrypt and Decrypt share. A forward
// round XORs its tweakey, applies M∘τ (omitted in the first, short round)
// and σ1; a backward round is its inverse, σ1 then τ⁻¹∘M (omitted in the
// last round) then the tweakey. Round i's tweakey is k0 ⊕ c_i ⊕ tw_i,
// where tw_i is the tweak after i updates, XORed with fa in the forward
// half and ba in the backward half. Around the reflector τ⁻¹∘M∘τ sit a
// forward round keyed cf ⊕ tw_r and a backward round keyed cb ⊕ tw_r; rk
// is XORed onto the reflector's output.
func (c *Cipher) crypt(is, t, fa, ba, cf, cb, rk uint64) uint64 {
	var tw [maxRounds]uint64
	r := c.rounds
	tw[0] = t
	is = sub(is ^ c.k0 ^ roundConst[0] ^ fa ^ t)
	for i := 1; i < r; i++ {
		t = tweakTab.apply(t)
		tw[i] = t
		is = sub(fwdTab.apply(is ^ c.k0 ^ roundConst[i] ^ fa ^ t))
	}
	t = tweakTab.apply(t)
	is = sub(fwdTab.apply(is ^ cf ^ t))
	is = reflTab.apply(is) ^ rk
	is = bwdTab.apply(sub(is)) ^ cb ^ t
	for i := r - 1; i > 0; i-- {
		is = bwdTab.apply(sub(is)) ^ c.k0 ^ roundConst[i] ^ ba ^ tw[i]
	}
	return sub(is) ^ c.k0 ^ roundConst[0] ^ ba ^ tw[0]
}

// Encrypt enciphers the 64-bit plaintext p under tweak t: whitening with
// w0, the forward rounds, the central rounds keyed w1 and w0 around the
// keyed reflector, the backward rounds with α folded into their tweakeys,
// and whitening with w1.
func (c *Cipher) Encrypt(p, t uint64) uint64 {
	return c.crypt(p^c.w0, t, 0, alpha, c.w1, c.w0, c.k1) ^ c.w1
}

// Decrypt deciphers the 64-bit ciphertext ct under tweak t. It is the
// inverse circuit of Encrypt, which by QARMA's reflective construction is
// the same circuit with w0 and w1 exchanged, α moved to the forward half,
// and the reflector key added before the reflector instead of after it
// (hence diffused through it). The package tests verify
// Decrypt(Encrypt(p, t), t) == p for all keys, tweaks and round counts.
func (c *Cipher) Decrypt(ct, t uint64) uint64 {
	return c.crypt(ct^c.w1, t, alpha, 0, c.w0, c.w1, reflTab.apply(c.k1)) ^ c.w0
}

// MAC computes a 32-bit message authentication code over the 64-bit value v
// with tweak t, as the ARMv8.3 PAC construction does: the full 64-bit QARMA
// output truncated to its low 32 bits.
func (c *Cipher) MAC(v, t uint64) uint32 {
	return uint32(c.Encrypt(v, t))
}
