#include "textflag.h"

// func prefetchBurst(ms []*Mbuf, off uintptr)
TEXT ·prefetchBurst(SB), NOSPLIT, $0-32
	MOVD ms_base+0(FP), R0
	MOVD ms_len+8(FP), R1
	MOVD off+24(FP), R2
	CMP  $0, R1
	BLE  done

loop:
	MOVD.P 8(R0), R3
	PRFM   (R3), PLDL1KEEP
	ADD    R2, R3, R4
	PRFM   (R4), PLDL1KEEP
	SUBS   $1, R1, R1
	BNE    loop

done:
	RET

// func prefetchLines(addrs []uintptr)
TEXT ·prefetchLines(SB), NOSPLIT, $0-24
	MOVD addrs_base+0(FP), R0
	MOVD addrs_len+8(FP), R1
	CMP  $0, R1
	BLE  done

loop:
	MOVD.P 8(R0), R3
	PRFM   (R3), PLDL1KEEP
	SUBS   $1, R1, R1
	BNE    loop

done:
	RET
