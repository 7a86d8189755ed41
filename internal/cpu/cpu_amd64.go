//go:build amd64 && !purego

package cpu

func cpuid(eaxArg, ecxArg uint32) (eax, ebx, ecx, edx uint32)

func xgetbv() (eax, edx uint32)

// detect reads CPUID and XCR0. AVX2 needs the instructions (CPUID.7.EBX[5])
// plus OS support for ymm state (OSXSAVE, AVX, XCR0 SSE|AVX = 0x6).
// AVX-512F needs CPUID.7.EBX[16] and OS support for the opmask and the
// full zmm file (XCR0 & 0xE6 = 0xE6).
func detect() Level {
	maxID, _, _, _ := cpuid(0, 0)
	if maxID < 7 {
		return Scalar
	}
	_, _, ecx1, _ := cpuid(1, 0)
	const osxsave, avx = 1 << 27, 1 << 28
	if ecx1&osxsave == 0 || ecx1&avx == 0 {
		return Scalar
	}
	xcr0, _ := xgetbv()
	_, ebx7, _, _ := cpuid(7, 0)
	const avx2, avx512f = 1 << 5, 1 << 16
	switch {
	case xcr0&0x6 != 0x6 || ebx7&avx2 == 0:
		return Scalar
	case xcr0&0xE6 != 0xE6 || ebx7&avx512f == 0:
		return AVX2
	}
	return AVX512
}
