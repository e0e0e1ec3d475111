#include "textflag.h"

// func prefetchBurst(ms []*Mbuf, off uintptr)
TEXT ·prefetchBurst(SB), NOSPLIT, $0-32
	MOVQ ms_base+0(FP), SI
	MOVQ ms_len+8(FP), CX
	MOVQ off+24(FP), DX
	TESTQ CX, CX
	JLE  done

loop:
	MOVQ       (SI), AX
	PREFETCHT0 (AX)
	PREFETCHT0 (AX)(DX*1)
	ADDQ       $8, SI
	DECQ       CX
	JNZ        loop

done:
	RET

// func prefetchLines(addrs []uintptr)
TEXT ·prefetchLines(SB), NOSPLIT, $0-24
	MOVQ addrs_base+0(FP), SI
	MOVQ addrs_len+8(FP), CX
	TESTQ CX, CX
	JLE  done

loop:
	MOVQ       (SI), AX
	PREFETCHT0 (AX)
	ADDQ       $8, SI
	DECQ       CX
	JNZ        loop

done:
	RET
