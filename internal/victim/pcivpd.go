package victim

import (
	"deaduops/internal/asm"
	"deaduops/internal/isa"
)

// PCIVPDStyleGadget emits a victim modelled on the Linux PCI driver
// routine pci_vpd_find_tag, which §VI-A cites as an example of a
// naturally occurring gadget (the paper does not demonstrate an attack
// on it): the routine reads a header byte at an attacker-influenced
// offset, bit-masks it, and takes a dependent branch on the tag — so
// the victim itself performs both the unauthorized transient access
// and the secret-dependent control transfer, and an attacker would
// need no disclosure gadget of its own. It is the static analyzer's
// pci-vpd fixture.
//
//	int find_tag(buf, off, len) {
//	    if (off < len) {             // bounds check (flushable guard)
//	        u8 tag = buf[off];       // transient read of the secret
//	        if (tag & 0x80)          // bit mask + dependent branch
//	            return handle_large(tag);
//	        return handle_small(tag);
//	    }
//	    return -1;
//	}
//
// The handlers are provided by the caller via labels "vpd_large" and
// "vpd_small" (each must end by returning); they stand in for the
// kernel code whose micro-op cache footprint discloses the tag bit.
// Labels defined here: vpd_find_tag, vpd_oob.
//
// ABI: RegArg = offset, R2 = 0, returns RegRet (-1 when out of bounds).
func PCIVPDStyleGadget(b *asm.Builder, l Layout) {
	b.Label("vpd_find_tag")
	b.Load(isa.R3, isa.R2, int64(l.ArraySizeAddr)) // len (flushable)
	b.Cmp(RegArg, isa.R3)
	b.Jcc(isa.AE, "vpd_oob")
	b.Loadb(isa.R4, RegArg, int64(l.ArrayBase)) // tag = buf[off]
	b.Mov(isa.R5, isa.R4)
	b.Andi(isa.R5, 0x80) // bit mask
	b.Cmpi(isa.R5, 0)
	b.Jcc(isa.NE, "vpd_large_path") // dependent branch
	b.Call("vpd_small")
	b.Ret()
	b.Label("vpd_large_path")
	b.Call("vpd_large")
	b.Ret()
	b.Label("vpd_oob")
	b.Movi(RegRet, -1)
	b.Ret()
}
