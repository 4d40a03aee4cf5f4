//! The storage-precision axis of the streamed data plane.
//!
//! [`StoragePrecision`] selects how many bytes a *stored* value occupies —
//! the execution plan's entry values (resident vectors and spilled
//! interleaved records) and any per-entry caches built over them (the
//! Cached variant's `Pres` table). It never changes the arithmetic: every
//! consumer widens each element to `f64` at load (an exact conversion) and
//! accumulates in `f64`, and model state (factor matrices, core tensor)
//! always stays `f64`.

/// Storage precision for streamed per-entry data.
///
/// [`StoragePrecision::F32`] halves the bytes-per-entry of the
/// bandwidth-bound sweeps and doubles how far a memory budget reaches
/// before spilling, at the cost of rounding each stored value once to
/// `f32` on ingest. Placement equivalence (resident ≡ spilled bitwise)
/// holds *within* each precision, because every placement widens the same
/// stored bits through the same kernels.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum StoragePrecision {
    /// 8-byte storage, bit-exact stored values (the classic mode).
    #[default]
    F64,
    /// 4-byte storage, f64 accumulation — values are rounded to `f32`
    /// once when stored; all arithmetic stays `f64`.
    F32,
}

impl StoragePrecision {
    /// Bytes per stored value element (8 or 4) — the factor every size
    /// formula and placement gate scales by.
    #[inline]
    pub const fn value_bytes(self) -> usize {
        match self {
            StoragePrecision::F64 => 8,
            StoragePrecision::F32 => 4,
        }
    }

    /// Rounds a value to this precision's storage grid: identity for
    /// [`StoragePrecision::F64`], one `f64→f32→f64` round-trip for
    /// [`StoragePrecision::F32`]. Lets f64-path code agree bitwise with
    /// what an f32 store-and-widen would produce.
    #[inline]
    pub fn quantize(self, v: f64) -> f64 {
        match self {
            StoragePrecision::F64 => v,
            StoragePrecision::F32 => v as f32 as f64,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn value_bytes_and_quantize() {
        assert_eq!(StoragePrecision::F64.value_bytes(), 8);
        assert_eq!(StoragePrecision::F32.value_bytes(), 4);
        let v = 0.1f64;
        assert_eq!(StoragePrecision::F64.quantize(v).to_bits(), v.to_bits());
        assert_eq!(
            StoragePrecision::F32.quantize(v).to_bits(),
            (0.1f32 as f64).to_bits()
        );
        // Values on the f32 grid survive the round-trip exactly.
        assert_eq!(StoragePrecision::F32.quantize(0.5), 0.5);
        assert_eq!(StoragePrecision::default(), StoragePrecision::F64);
    }
}
