"""The Fourier-analysis task library.

The paper lists "Fourier analysis" among the functional groups of VDCE
task libraries (section 1).  Tasks operate on 1-D signals; the spectral
kernels are NumPy FFTs, the generators produce deterministic multi-tone
test signals so example applications have verifiable outputs.
"""

from __future__ import annotations

import math

import numpy as np

from repro.tasklib.base import TaskDefinition, TaskSignature
from repro.tasklib.registry import TaskLibrary
from repro.util.errors import ExecutionError

LIBRARY_NAME = "fourier-analysis"


def _as_signal(value, task: str, port: str) -> np.ndarray:
    arr = np.asarray(value)
    if arr.ndim != 1:
        raise ExecutionError(
            f"{task}: port {port!r} expected a 1-D signal, got shape "
            f"{arr.shape}")
    return arr


def _impl_signal_generate(inputs: dict, params: dict) -> dict:
    n = int(params.get("n", 1024))
    tones = params.get("tones", [(50.0, 1.0), (120.0, 0.5)])
    noise = float(params.get("noise", 0.1))
    seed = int(params.get("seed", 0))
    sample_rate = float(params.get("sample_rate", 1000.0))
    t = np.arange(n) / sample_rate
    signal = np.zeros(n)
    for freq, amp in tones:
        signal += amp * np.sin(2 * np.pi * freq * t)
    if noise > 0:
        signal += noise * np.random.default_rng(seed).standard_normal(n)
    return {"signal": signal}


def _impl_fft(inputs: dict, params: dict) -> dict:
    x = _as_signal(inputs["signal"], "fft-1d", "signal")
    if x.size == 0:  # numpy's FFT rejects zero points
        return {"spectrum": np.zeros(0, dtype=np.complex128)}
    return {"spectrum": np.fft.fft(x)}


def _impl_ifft(inputs: dict, params: dict) -> dict:
    spectrum = _as_signal(inputs["spectrum"], "ifft-1d", "spectrum")
    if spectrum.size == 0:  # numpy's FFT rejects zero points
        return {"signal": np.zeros(0, dtype=np.float64)}
    return {"signal": np.fft.ifft(spectrum).real}


def _passband(bins: int, step: float, cutoff: float) -> int:
    """How many of ``k = 0, 1, ..., bins - 1`` have ``k * step <= cutoff``.

    ``k * step`` never falls as ``k`` grows, so those ``k`` are a prefix.
    ``cutoff / step`` estimates its length, and the walks settle it on
    the same products ``np.fft.fftfreq`` forms, so no edge bin moves.
    """
    count = bins if cutoff >= bins * step else int(cutoff / step)
    while count < bins and count * step <= cutoff:
        count += 1
    while count and not (count - 1) * step <= cutoff:
        count -= 1
    return count


def _impl_lowpass(inputs: dict, params: dict) -> dict:
    """Brick-wall low-pass in the frequency domain.

    Bin ``k`` of an ``n``-point spectrum sits at ``k * step`` Hz for
    ``k < (n + 1) // 2`` and at ``(k - n) * step`` Hz above, so the bins
    that pass are one slice at each end.
    """
    spectrum = _as_signal(inputs["spectrum"], "lowpass-filter", "spectrum")
    cutoff = float(params.get("cutoff_hz", 100.0))
    sample_rate = float(params.get("sample_rate", 1000.0))
    if not (math.isfinite(cutoff) and cutoff > 0):
        raise ExecutionError(
            f"lowpass-filter: cutoff must be positive and finite, got "
            f"{cutoff}")
    if not (math.isfinite(sample_rate) and sample_rate > 0):
        raise ExecutionError(
            f"lowpass-filter: sample_rate must be positive and finite, got "
            f"{sample_rate}")
    n = spectrum.shape[0]
    out = np.zeros(n, dtype=np.result_type(spectrum, 0.0))
    if n == 0:  # no bins, and no bin step to divide by
        return {"spectrum": out}
    step = 1.0 / (n * (1.0 / sample_rate))
    passed = _passband(n // 2 + 1, step, cutoff)  # bins with |k| < passed pass
    low, high = min(passed, (n + 1) // 2), max(passed - 1, 0)
    out[:low] = spectrum[:low]
    out[n - high:] = spectrum[n - high:]
    return {"spectrum": out}


def _impl_power_spectrum(inputs: dict, params: dict) -> dict:
    spectrum = _as_signal(inputs["spectrum"], "power-spectrum", "spectrum")
    n = spectrum.shape[0]
    return {"power": (np.abs(spectrum) ** 2) / n}


def _impl_peak_detect(inputs: dict, params: dict) -> dict:
    power = _as_signal(inputs["power"], "peak-detect", "power")
    count = int(params.get("count", 3))
    sample_rate = float(params.get("sample_rate", 1000.0))
    n = power.shape[0]
    half = power[: n // 2].astype(float)
    order = np.argsort(half, kind="stable")[::-1][:count]
    freqs = order * sample_rate / n
    return {"peaks": np.sort(freqs)}


def _impl_convolve(inputs: dict, params: dict) -> dict:
    a = _as_signal(inputs["a"], "convolve", "a")
    b = _as_signal(inputs["b"], "convolve", "b")
    return {"result": np.convolve(a, b, mode="full")}


def build_fourier_library() -> TaskLibrary:
    lib = TaskLibrary(LIBRARY_NAME, "1-D spectral analysis kernels")
    sig = dict(output_bytes_per_unit=8.0, output_complexity="linear",
               memory_mb_base=0.5, memory_mb_per_unit=32e-6,
               memory_complexity="linear")
    spec = dict(output_bytes_per_unit=16.0, output_complexity="linear",
                memory_mb_base=0.5, memory_mb_per_unit=32e-6,
                memory_complexity="linear")
    lib.add(TaskDefinition(
        name="signal-generate", library=LIBRARY_NAME,
        description="Multi-tone test signal with additive noise",
        signature=TaskSignature(inputs=(), outputs=("signal",)),
        base_time_s=0.01, base_size=1024, complexity="linear",
        impl=_impl_signal_generate, **sig))
    lib.add(TaskDefinition(
        name="fft-1d", library=LIBRARY_NAME,
        description="Forward FFT",
        signature=TaskSignature(inputs=("signal",), outputs=("spectrum",)),
        base_time_s=0.08, base_size=1024, complexity="nlogn",
        parallel_capable=True, parallel_efficiency=0.75,
        impl=_impl_fft, **spec))
    lib.add(TaskDefinition(
        name="ifft-1d", library=LIBRARY_NAME,
        description="Inverse FFT (real part)",
        signature=TaskSignature(inputs=("spectrum",), outputs=("signal",)),
        base_time_s=0.08, base_size=1024, complexity="nlogn",
        parallel_capable=True, parallel_efficiency=0.75,
        impl=_impl_ifft, **sig))
    lib.add(TaskDefinition(
        name="lowpass-filter", library=LIBRARY_NAME,
        description="Brick-wall low-pass in the frequency domain",
        signature=TaskSignature(inputs=("spectrum",), outputs=("spectrum",)),
        base_time_s=0.02, base_size=1024, complexity="linear",
        impl=_impl_lowpass, **spec))
    lib.add(TaskDefinition(
        name="power-spectrum", library=LIBRARY_NAME,
        description="Periodogram |X(f)|^2 / N",
        signature=TaskSignature(inputs=("spectrum",), outputs=("power",)),
        base_time_s=0.015, base_size=1024, complexity="linear",
        impl=_impl_power_spectrum, **sig))
    lib.add(TaskDefinition(
        name="peak-detect", library=LIBRARY_NAME,
        description="Strongest spectral peaks (Hz)",
        signature=TaskSignature(inputs=("power",), outputs=("peaks",)),
        base_time_s=0.01, base_size=1024, complexity="nlogn",
        output_bytes_per_unit=64.0, output_complexity="constant",
        memory_mb_base=0.5, memory_mb_per_unit=8e-6,
        impl=_impl_peak_detect))
    lib.add(TaskDefinition(
        name="convolve", library=LIBRARY_NAME,
        description="Full linear convolution of two signals",
        signature=TaskSignature(inputs=("a", "b"), outputs=("result",)),
        base_time_s=0.2, base_size=1024, complexity="quadratic",
        parallel_capable=True, parallel_efficiency=0.85,
        impl=_impl_convolve, **sig))
    return lib
