//! Model checkpoint save/load (§5.10's practical concern, exercised for
//! real at tiny scale): a simple versioned binary format holding the
//! architecture and every parameter in canonical visit order.

use std::io::{self, Read, Write};
use std::path::Path;

use rand::SeedableRng;

use crate::gpt::{GptModel, TinyGptConfig};

const MAGIC: &[u8; 8] = b"MGTRNCK1";

/// Serialize the model (architecture + parameters) to a writer.
pub fn save(model: &mut GptModel, w: &mut impl Write) -> io::Result<()> {
    w.write_all(MAGIC)?;
    for v in [
        model.cfg.vocab,
        model.cfg.seq,
        model.cfg.hidden,
        model.cfg.heads,
        model.cfg.layers,
    ] {
        w.write_all(&(v as u64).to_le_bytes())?;
    }
    let mut params: Vec<f32> = Vec::new();
    model.visit(&mut |p, _| params.extend_from_slice(p));
    w.write_all(&(params.len() as u64).to_le_bytes())?;
    for p in params {
        w.write_all(&p.to_le_bytes())?;
    }
    Ok(())
}

/// Deserialize a model previously written by [`save`]. A malformed or
/// truncated file is an `InvalidData` or `UnexpectedEof` error: the header
/// is checked before anything is allocated, and parameter memory grows only
/// with the bytes actually read.
pub fn load(r: &mut impl Read) -> io::Result<GptModel> {
    let invalid = |msg: String| io::Error::new(io::ErrorKind::InvalidData, msg);
    let mut magic = [0u8; 8];
    r.read_exact(&mut magic)?;
    if &magic != MAGIC {
        return Err(invalid("not a megatron-ptdp-rs checkpoint".into()));
    }
    let mut u64buf = [0u8; 8];
    let mut next_u64 = |r: &mut dyn Read| -> io::Result<u64> {
        r.read_exact(&mut u64buf)?;
        Ok(u64::from_le_bytes(u64buf))
    };
    let mut fields = [0usize; 5];
    for f in &mut fields {
        *f = usize::try_from(next_u64(r)?).map_err(|_| invalid("size exceeds usize".into()))?;
    }
    let [vocab, seq, hidden, heads, layers] = fields;
    let cfg = TinyGptConfig {
        vocab,
        seq,
        hidden,
        heads,
        layers,
    };
    cfg.check()
        .map_err(|e| invalid(format!("bad architecture {cfg:?}: {e}")))?;
    let need = cfg
        .param_count()
        .ok_or_else(|| invalid(format!("parameter count of {cfg:?} overflows")))?;
    let count = next_u64(r)?;
    if count != need as u64 {
        return Err(invalid(format!(
            "checkpoint has {count} params, model needs {need}"
        )));
    }
    let mut params = Vec::new();
    let mut f32buf = [0u8; 4];
    for _ in 0..need {
        r.read_exact(&mut f32buf)?;
        params.push(f32::from_le_bytes(f32buf));
    }
    // Rebuild structure (weights are about to be overwritten); the file
    // held every parameter, so its size bounds the allocation.
    let mut rng = rand::rngs::StdRng::seed_from_u64(0);
    let mut model = GptModel::new(cfg, &mut rng);
    let mut rest = params.as_slice();
    model.visit(&mut |p, _| {
        let (head, tail) = rest.split_at(p.len());
        p.copy_from_slice(head);
        rest = tail;
    });
    Ok(model)
}

/// Save to a file path.
pub fn save_file(model: &mut GptModel, path: impl AsRef<Path>) -> io::Result<()> {
    let mut f = io::BufWriter::new(std::fs::File::create(path)?);
    save(model, &mut f)
}

/// Load from a file path.
pub fn load_file(path: impl AsRef<Path>) -> io::Result<GptModel> {
    let mut f = io::BufReader::new(std::fs::File::open(path)?);
    load(&mut f)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::layers::cross_entropy;

    fn model() -> GptModel {
        let cfg = TinyGptConfig {
            vocab: 11,
            seq: 4,
            hidden: 8,
            heads: 2,
            layers: 2,
        };
        let mut rng = rand::rngs::StdRng::seed_from_u64(5);
        GptModel::new(cfg, &mut rng)
    }

    #[test]
    fn roundtrip_preserves_everything() {
        let mut m = model();
        let mut buf = Vec::new();
        save(&mut m, &mut buf).unwrap();
        let restored = load(&mut buf.as_slice()).unwrap();
        assert_eq!(restored.cfg, m.cfg);
        // Identical forward results.
        let tokens = [1usize, 2, 3, 4];
        let (a, _) = m.forward(&tokens, 1);
        let (b, _) = restored.forward(&tokens, 1);
        assert_eq!(a.max_abs_diff(&b), 0.0);
        let (la, _) = cross_entropy(&a, &[2, 3, 4, 5]);
        let (lb, _) = cross_entropy(&b, &[2, 3, 4, 5]);
        assert_eq!(la, lb);
    }

    #[test]
    fn rejects_garbage() {
        assert!(load(&mut &b"not a checkpoint"[..]).is_err());
    }

    #[test]
    fn rejects_truncated() {
        let mut m = model();
        let mut buf = Vec::new();
        save(&mut m, &mut buf).unwrap();
        buf.truncate(buf.len() - 13);
        assert!(load(&mut buf.as_slice()).is_err());
    }

    /// A header with the given fields and parameter count, no body.
    fn header(fields: [u64; 5], count: u64) -> Vec<u8> {
        let mut buf = MAGIC.to_vec();
        for v in fields.into_iter().chain([count]) {
            buf.extend_from_slice(&v.to_le_bytes());
        }
        buf
    }

    #[test]
    fn rejects_bad_headers_without_allocating() {
        let good = [11, 4, 8, 2, 2];
        let need = TinyGptConfig {
            vocab: 11,
            seq: 4,
            hidden: 8,
            heads: 2,
            layers: 2,
        }
        .param_count()
        .unwrap() as u64;
        let bad = [
            header(good, u64::MAX),
            header(good, need + 1),
            header([11, 4, 8, 0, 2], need),
            header([0, 4, 8, 2, 2], need),
            header([11, 4, 8, 3, 2], need),
            header([u64::MAX, 4, 8, 2, 2], need),
            header([11, 4, 1 << 32, 1, 1 << 32], u64::MAX),
        ];
        for buf in bad {
            let err = load(&mut buf.as_slice()).expect_err("bad header must fail");
            assert_eq!(err.kind(), io::ErrorKind::InvalidData, "{err}");
        }
        // A valid header with the body cut off.
        let err = load(&mut header(good, need).as_slice()).expect_err("no body");
        assert_eq!(err.kind(), io::ErrorKind::UnexpectedEof);
    }

    #[test]
    fn param_count_matches_the_model() {
        for cfg in [
            model().cfg,
            TinyGptConfig {
                vocab: 5,
                seq: 3,
                hidden: 12,
                heads: 3,
                layers: 1,
            },
        ] {
            let mut rng = rand::rngs::StdRng::seed_from_u64(1);
            assert_eq!(
                cfg.param_count(),
                Some(GptModel::new(cfg, &mut rng).param_count())
            );
        }
    }

    #[test]
    fn file_roundtrip() {
        let dir = std::env::temp_dir().join("megatron_ckpt_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("tiny.ckpt");
        let mut m = model();
        save_file(&mut m, &path).unwrap();
        let restored = load_file(&path).unwrap();
        assert_eq!(restored.cfg, m.cfg);
        std::fs::remove_file(&path).ok();
    }
}
