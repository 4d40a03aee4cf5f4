use crate::{Result, SparseTensor, StoragePrecision, TensorError};
use std::fs::File;
use std::io::{BufRead, BufReader, BufWriter, Write as _};
use std::ops::Range;
use std::path::Path;

/// Reads a sparse tensor from the whitespace-separated text format the
/// P-Tucker authors distribute their datasets in: each line is
/// `i₁ i₂ … i_N value` with **1-based** indices.
///
/// The tensor order is inferred from the first data line; dimensionalities
/// are the per-mode maxima. Blank lines and lines starting with `#` are
/// skipped.
///
/// # Errors
/// [`TensorError::Parse`] with a 1-based line number for malformed lines,
/// [`TensorError::Io`] for filesystem problems, plus tensor-construction
/// validation errors.
pub fn read_tsv<P: AsRef<Path>>(path: P) -> Result<SparseTensor> {
    read_tsv_impl(path, StoragePrecision::F64)
}

/// [`read_tsv`] with values parsed **as `f32`** and widened to `f64` — for
/// end-to-end f32 pipelines: the tensor's values land exactly on the f32
/// storage grid the engine's `StoragePrecision::F32` mode uses, so reading
/// an f32 value file and fitting with f32 storage involves no second
/// rounding (the f64 text round-trip is skipped).
///
/// # Errors
/// As for [`read_tsv`].
pub fn read_tsv_f32<P: AsRef<Path>>(path: P) -> Result<SparseTensor> {
    read_tsv_impl(path, StoragePrecision::F32)
}

fn read_tsv_impl<P: AsRef<Path>>(path: P, precision: StoragePrecision) -> Result<SparseTensor> {
    let mut dims: Vec<usize> = Vec::new();
    let mut indices: Vec<usize> = Vec::new();
    let mut values: Vec<f64> = Vec::new();
    for_each_tsv_entry(path, precision, |index, v| {
        if dims.is_empty() {
            dims = vec![0; index.len()];
        }
        for (d, &i) in dims.iter_mut().zip(index) {
            *d = (*d).max(i + 1);
        }
        indices.extend_from_slice(index);
        values.push(v);
        Ok(())
    })?;
    SparseTensor::from_flat(dims, indices, values)
}

/// Streams every data line of a TSV file in the [`read_tsv`] format
/// through `on_entry`, as its **zero-based** multi-index and its value
/// parsed at `precision` (`F32` parses an `f32` and widens). The one
/// parser behind [`read_tsv`] and the streamed disk ingest, so their
/// diagnostics and value semantics cannot drift.
///
/// Lines are split at the byte level into reused buffers: past the first
/// line, parsing allocates nothing. Blank lines and lines starting with
/// `#` are skipped; the order is fixed by the first data line.
///
/// # Errors
/// [`TensorError::Parse`] with a 1-based line number for a malformed line
/// (line 0 when the file holds no data line), [`TensorError::Io`] for
/// filesystem problems, or whatever `on_entry` returns.
pub fn for_each_tsv_entry<P, F>(path: P, precision: StoragePrecision, mut on_entry: F) -> Result<()>
where
    P: AsRef<Path>,
    F: FnMut(&[usize], f64) -> Result<()>,
{
    let mut reader = BufReader::new(File::open(path)?);
    let mut raw: Vec<u8> = Vec::new();
    let mut fields: Vec<Range<usize>> = Vec::new();
    let mut index: Vec<usize> = Vec::new();
    let mut order: Option<usize> = None;
    let mut line_no = 0usize;
    loop {
        raw.clear();
        if reader.read_until(b'\n', &mut raw)? == 0 {
            break;
        }
        line_no += 1;
        let line = std::str::from_utf8(&raw).map_err(|_| {
            std::io::Error::new(
                std::io::ErrorKind::InvalidData,
                "stream did not contain valid UTF-8",
            )
        })?;
        split_fields(line, &mut fields);
        if fields
            .first()
            .is_none_or(|f| line[f.clone()].starts_with('#'))
        {
            continue;
        }
        let err = |message: String| TensorError::Parse {
            line: line_no,
            message,
        };
        if fields.len() < 2 {
            return Err(err("expected at least one index and a value".into()));
        }
        let n = fields.len() - 1;
        match order {
            None => order = Some(n),
            Some(o) if o != n => return Err(err(format!("expected {o} indices, found {n}"))),
            _ => {}
        }
        index.clear();
        for (k, f) in fields[..n].iter().enumerate() {
            let f = &line[f.clone()];
            let one_based = f
                .parse::<usize>()
                .map_err(|_| err(format!("bad index '{f}' in mode {k}")))?;
            if one_based == 0 {
                return Err(err(format!(
                    "index in mode {k} is 0; the format is 1-based"
                )));
            }
            index.push(one_based - 1);
        }
        let raw_value = &line[fields[n].clone()];
        let value = match precision {
            StoragePrecision::F32 => raw_value.parse::<f32>().map(f64::from).ok(),
            StoragePrecision::F64 => raw_value.parse::<f64>().ok(),
        }
        .ok_or_else(|| err(format!("bad value '{raw_value}'")))?;
        on_entry(&index, value)?;
    }
    if order.is_none() {
        return Err(TensorError::Parse {
            line: 0,
            message: "file contains no data lines".into(),
        });
    }
    Ok(())
}

/// Splits `line` at whitespace (as [`str::split_whitespace`] does) into
/// `fields`' byte ranges. ASCII lines — every real dataset — are split
/// byte by byte; others take the Unicode-aware path.
fn split_fields(line: &str, fields: &mut Vec<Range<usize>>) {
    fields.clear();
    if line.is_ascii() {
        let mut start = None;
        for (i, &b) in line.as_bytes().iter().enumerate() {
            // `char::is_whitespace` on ASCII, vertical tab included.
            let space = matches!(b, b' ' | b'\t' | b'\n' | b'\x0b' | b'\x0c' | b'\r');
            match (space, start) {
                (false, None) => start = Some(i),
                (true, Some(s)) => {
                    fields.push(s..i);
                    start = None;
                }
                _ => {}
            }
        }
        if let Some(s) = start {
            fields.push(s..line.len());
        }
    } else {
        let base = line.as_ptr() as usize;
        fields.extend(line.split_whitespace().map(|f| {
            let s = f.as_ptr() as usize - base;
            s..s + f.len()
        }));
    }
}

/// Writes a sparse tensor in the same 1-based whitespace-separated format
/// accepted by [`read_tsv`].
///
/// # Errors
/// [`TensorError::Io`] on write failures.
pub fn write_tsv<P: AsRef<Path>>(path: P, tensor: &SparseTensor) -> Result<()> {
    let file = File::create(path)?;
    let mut w = BufWriter::new(file);
    for e in 0..tensor.nnz() {
        let idx = tensor.index(e);
        for &i in idx {
            write!(w, "{} ", i + 1)?;
        }
        writeln!(w, "{}", tensor.value(e))?;
    }
    w.flush()?;
    Ok(())
}

/// [`write_tsv`] with values emitted at **`f32` precision** (each value is
/// rounded to `f32` once before formatting): the emit half of an
/// end-to-end f32 pipeline. Rust's shortest-roundtrip float formatting
/// guarantees [`read_tsv_f32`] recovers the f32 bits exactly.
///
/// # Errors
/// [`TensorError::Io`] on write failures.
pub fn write_tsv_f32<P: AsRef<Path>>(path: P, tensor: &SparseTensor) -> Result<()> {
    let file = File::create(path)?;
    let mut w = BufWriter::new(file);
    for e in 0..tensor.nnz() {
        let idx = tensor.index(e);
        for &i in idx {
            write!(w, "{} ", i + 1)?;
        }
        writeln!(w, "{}", tensor.value(e) as f32)?;
    }
    w.flush()?;
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmpfile(name: &str, contents: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join("ptucker-tensor-io-tests");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join(name);
        let mut f = File::create(&path).unwrap();
        f.write_all(contents.as_bytes()).unwrap();
        path
    }

    #[test]
    fn read_simple_3way() {
        let p = tmpfile(
            "simple.tsv",
            "1 1 1 0.5\n2 1 3 1.5\n# comment line\n\n1 2 2 -0.25\n",
        );
        let t = read_tsv(&p).unwrap();
        assert_eq!(t.order(), 3);
        assert_eq!(t.dims(), &[2, 2, 3]);
        assert_eq!(t.nnz(), 3);
        assert_eq!(t.index(1), &[1, 0, 2]);
        assert_eq!(t.value(1), 1.5);
    }

    #[test]
    fn roundtrip_write_read() {
        let t = SparseTensor::new(
            vec![3, 4],
            vec![(vec![0, 0], 1.0), (vec![2, 3], -2.5), (vec![1, 2], 0.125)],
        )
        .unwrap();
        let p = std::env::temp_dir()
            .join("ptucker-tensor-io-tests")
            .join("roundtrip.tsv");
        std::fs::create_dir_all(p.parent().unwrap()).unwrap();
        write_tsv(&p, &t).unwrap();
        let t2 = read_tsv(&p).unwrap();
        assert_eq!(t2.nnz(), 3);
        assert_eq!(t2.dims(), &[3, 4]);
        for e in 0..3 {
            assert_eq!(t2.index(e), t.index(e));
            assert_eq!(t2.value(e), t.value(e));
        }
    }

    #[test]
    fn f32_value_files_roundtrip_on_the_f32_grid() {
        // Values chosen off the f32 grid: write_tsv_f32 rounds once, and
        // read_tsv_f32 recovers exactly those f32 bits (shortest-roundtrip
        // formatting), so an f32 pipeline has no second rounding.
        let t = SparseTensor::new(
            vec![2, 2],
            vec![(vec![0, 0], 0.1), (vec![1, 1], 1.0e-7), (vec![0, 1], -2.5)],
        )
        .unwrap();
        let p = std::env::temp_dir()
            .join("ptucker-tensor-io-tests")
            .join("f32grid.tsv");
        std::fs::create_dir_all(p.parent().unwrap()).unwrap();
        write_tsv_f32(&p, &t).unwrap();
        let t2 = read_tsv_f32(&p).unwrap();
        assert_eq!(t2.nnz(), 3);
        for e in 0..3 {
            assert_eq!(t2.index(e), t.index(e));
            let want = t.value(e) as f32 as f64;
            assert_eq!(t2.value(e).to_bits(), want.to_bits());
        }
        // An f64 reader sees the same decimal text, widened differently
        // only when the value is off the f64-representable f32 decimal —
        // shortest-roundtrip f32 decimals parse exactly as f64 too.
        let t3 = read_tsv(&p).unwrap();
        assert_eq!(t3.value(0) as f32, 0.1f32);
    }

    #[test]
    fn rejects_zero_index() {
        let p = tmpfile("zero.tsv", "0 1 0.5\n");
        let err = read_tsv(&p).unwrap_err();
        assert!(matches!(err, TensorError::Parse { line: 1, .. }));
    }

    #[test]
    fn rejects_ragged_lines() {
        let p = tmpfile("ragged.tsv", "1 1 0.5\n1 1 1 0.5\n");
        let err = read_tsv(&p).unwrap_err();
        assert!(matches!(err, TensorError::Parse { line: 2, .. }));
    }

    #[test]
    fn rejects_bad_value() {
        let p = tmpfile("badval.tsv", "1 1 abc\n");
        assert!(matches!(read_tsv(&p), Err(TensorError::Parse { .. })));
    }

    #[test]
    fn rejects_empty_file() {
        let p = tmpfile("empty.tsv", "# only a comment\n");
        assert!(matches!(read_tsv(&p), Err(TensorError::Parse { .. })));
    }

    /// The byte-level splitter agrees with `str::split_whitespace` on
    /// awkward input: CRLF endings, vertical tabs and Unicode spaces.
    #[test]
    fn byte_level_fields_match_split_whitespace() {
        let mut fields = Vec::new();
        for line in [
            "1 2\t3 0.5\r\n",
            "  4\x0b5 \x0c 6 -1e3\n",
            "7\u{a0}8 9\u{3000}1.0\n",
            "",
            "   \n",
        ] {
            split_fields(line, &mut fields);
            let ours: Vec<&str> = fields.iter().map(|f| &line[f.clone()]).collect();
            let std: Vec<&str> = line.split_whitespace().collect();
            assert_eq!(ours, std, "{line:?}");
        }
    }

    #[test]
    fn crlf_files_parse_like_lf_files() {
        let p = tmpfile("crlf.tsv", "1 1 1 0.5\r\n2 1 3 1.5\r\n");
        let t = read_tsv(&p).unwrap();
        assert_eq!(t.dims(), &[2, 1, 3]);
        assert_eq!(t.value(1), 1.5);
    }

    #[test]
    fn missing_file_is_io_error() {
        assert!(matches!(
            read_tsv("/nonexistent/definitely/missing.tsv"),
            Err(TensorError::Io(_))
        ));
    }
}
