//! Reader for the IDX (`ubyte`) format used by the original MNIST
//! distribution.
//!
//! If the four classic files (`train-images-idx3-ubyte`,
//! `train-labels-idx1-ubyte`, `t10k-images-idx3-ubyte`,
//! `t10k-labels-idx1-ubyte`) are available, [`load_mnist_dir`] lets every
//! experiment run on the real dataset instead of the synthetic generator.

use bytes::Buf;
use cdl_nn::trainer::LabelledSet;
use cdl_tensor::Tensor;
use std::fmt;
use std::path::Path;

/// Magic number of an IDX file with unsigned-byte image data (rank 3).
pub const MAGIC_IMAGES: u32 = 0x0000_0803;
/// Magic number of an IDX file with unsigned-byte label data (rank 1).
pub const MAGIC_LABELS: u32 = 0x0000_0801;

/// Errors raised by the IDX parser.
#[derive(Debug)]
pub enum IdxError {
    /// The byte stream ended prematurely or had trailing garbage.
    Truncated {
        /// What the parser was reading when data ran out.
        context: &'static str,
    },
    /// The magic number did not match the expected kind.
    BadMagic {
        /// Magic value found.
        found: u32,
        /// Magic value expected.
        expected: u32,
    },
    /// Images and labels disagree in count.
    CountMismatch {
        /// Number of images.
        images: usize,
        /// Number of labels.
        labels: usize,
    },
    /// Underlying I/O failure.
    Io(std::io::Error),
}

impl fmt::Display for IdxError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            IdxError::Truncated { context } => {
                write!(f, "truncated IDX data while reading {context}")
            }
            IdxError::BadMagic { found, expected } => {
                write!(f, "bad IDX magic {found:#010x}, expected {expected:#010x}")
            }
            IdxError::CountMismatch { images, labels } => {
                write!(f, "{images} images but {labels} labels")
            }
            IdxError::Io(e) => write!(f, "io error: {e}"),
        }
    }
}

impl std::error::Error for IdxError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            IdxError::Io(e) => Some(e),
            _ => None,
        }
    }
}

impl From<std::io::Error> for IdxError {
    fn from(e: std::io::Error) -> Self {
        IdxError::Io(e)
    }
}

/// Parses an IDX image file (`magic 0x803`) into `[1, rows, cols]` tensors
/// with intensities scaled to `[0, 1]`.
///
/// # Errors
///
/// Returns [`IdxError`] on malformed input.
pub fn parse_images(mut data: &[u8]) -> Result<Vec<Tensor>, IdxError> {
    if data.remaining() < 16 {
        return Err(IdxError::Truncated {
            context: "image header",
        });
    }
    let magic = data.get_u32();
    if magic != MAGIC_IMAGES {
        return Err(IdxError::BadMagic {
            found: magic,
            expected: MAGIC_IMAGES,
        });
    }
    let count = data.get_u32() as usize;
    let rows = data.get_u32() as usize;
    let cols = data.get_u32() as usize;
    let pixels = rows * cols;
    // checked: count/rows/cols come from the (possibly corrupt) header — an
    // overflowing product would bypass the truncation guard, and zero-pixel
    // "images" with a huge count would pass it and provoke a giant
    // allocation below
    let total = count.checked_mul(pixels).ok_or(IdxError::Truncated {
        context: "image header",
    })?;
    if data.remaining() < total || (pixels == 0 && count > 0) {
        return Err(IdxError::Truncated {
            context: "image pixels",
        });
    }
    let mut images = Vec::with_capacity(count);
    for _ in 0..count {
        let mut buf = Vec::with_capacity(pixels);
        for _ in 0..pixels {
            buf.push(data.get_u8() as f32 / 255.0);
        }
        images.push(Tensor::from_vec(buf, &[1, rows, cols]).expect("sized buffer"));
    }
    Ok(images)
}

/// Parses an IDX label file (`magic 0x801`).
///
/// # Errors
///
/// Returns [`IdxError`] on malformed input.
pub fn parse_labels(mut data: &[u8]) -> Result<Vec<usize>, IdxError> {
    if data.remaining() < 8 {
        return Err(IdxError::Truncated {
            context: "label header",
        });
    }
    let magic = data.get_u32();
    if magic != MAGIC_LABELS {
        return Err(IdxError::BadMagic {
            found: magic,
            expected: MAGIC_LABELS,
        });
    }
    let count = data.get_u32() as usize;
    if data.remaining() < count {
        return Err(IdxError::Truncated {
            context: "label bytes",
        });
    }
    Ok((0..count).map(|_| data.get_u8() as usize).collect())
}

/// Combines parsed images and labels into a [`LabelledSet`].
///
/// # Errors
///
/// Returns [`IdxError::CountMismatch`] when lengths differ.
pub(crate) fn combine(images: Vec<Tensor>, labels: Vec<usize>) -> Result<LabelledSet, IdxError> {
    if images.len() != labels.len() {
        return Err(IdxError::CountMismatch {
            images: images.len(),
            labels: labels.len(),
        });
    }
    Ok(LabelledSet { images, labels })
}

/// Loads the four classic MNIST files from a directory.
///
/// Returns `(train, test)`.
///
/// # Errors
///
/// Returns [`IdxError`] on missing or malformed files.
pub fn load_mnist_dir(dir: &Path) -> Result<(LabelledSet, LabelledSet), IdxError> {
    let read = |name: &str| -> Result<Vec<u8>, IdxError> { Ok(std::fs::read(dir.join(name))?) };
    let train = combine(
        parse_images(&read("train-images-idx3-ubyte")?)?,
        parse_labels(&read("train-labels-idx1-ubyte")?)?,
    )?;
    let test = combine(
        parse_images(&read("t10k-images-idx3-ubyte")?)?,
        parse_labels(&read("t10k-labels-idx1-ubyte")?)?,
    )?;
    Ok((train, test))
}

#[cfg(test)]
mod tests {
    use super::*;
    use bytes::BufMut;

    /// Serialises images (each `[1, rows, cols]`, values in `[0, 1]`) to IDX bytes.
    fn write_images(images: &[Tensor]) -> Vec<u8> {
        let (rows, cols) = images
            .first()
            .map(|t| (t.dims()[1], t.dims()[2]))
            .unwrap_or((0, 0));
        let mut out = Vec::with_capacity(16 + images.len() * rows * cols);
        out.put_u32(MAGIC_IMAGES);
        out.put_u32(images.len() as u32);
        out.put_u32(rows as u32);
        out.put_u32(cols as u32);
        for img in images {
            for &v in img.data() {
                out.put_u8((v.clamp(0.0, 1.0) * 255.0).round() as u8);
            }
        }
        out
    }

    /// Serialises labels to IDX bytes.
    fn write_labels(labels: &[usize]) -> Vec<u8> {
        let mut out = Vec::with_capacity(8 + labels.len());
        out.put_u32(MAGIC_LABELS);
        out.put_u32(labels.len() as u32);
        for &l in labels {
            out.put_u8(l as u8);
        }
        out
    }

    fn demo_images() -> Vec<Tensor> {
        (0..3)
            .map(|i| Tensor::full(&[1, 4, 4], i as f32 / 4.0))
            .collect()
    }

    #[test]
    fn image_round_trip() {
        let imgs = demo_images();
        let bytes = write_images(&imgs);
        let parsed = parse_images(&bytes).unwrap();
        assert_eq!(parsed.len(), 3);
        for (a, b) in parsed.iter().zip(&imgs) {
            assert_eq!(a.dims(), b.dims());
            for (x, y) in a.data().iter().zip(b.data()) {
                assert!((x - y).abs() < 1.0 / 255.0 + 1e-6);
            }
        }
    }

    #[test]
    fn label_round_trip() {
        let labels = vec![0usize, 5, 9, 3];
        let bytes = write_labels(&labels);
        assert_eq!(parse_labels(&bytes).unwrap(), labels);
    }

    #[test]
    fn rejects_bad_magic() {
        let mut bytes = write_labels(&[1, 2]);
        bytes[3] = 0x03; // corrupt magic to images value
        assert!(matches!(
            parse_labels(&bytes),
            Err(IdxError::BadMagic { .. })
        ));
        let img_bytes = write_images(&demo_images());
        assert!(matches!(
            parse_labels(&img_bytes),
            Err(IdxError::BadMagic { .. })
        ));
    }

    #[test]
    fn rejects_truncation() {
        let bytes = write_images(&demo_images());
        assert!(matches!(
            parse_images(&bytes[..20]),
            Err(IdxError::Truncated { .. })
        ));
        assert!(matches!(parse_images(&[]), Err(IdxError::Truncated { .. })));
        assert!(matches!(
            parse_labels(&[0, 0]),
            Err(IdxError::Truncated { .. })
        ));
    }

    #[test]
    fn rejects_overflowing_header() {
        // count * rows * cols wraps usize if multiplied unchecked; the
        // parser must answer with an error, not a panic or huge allocation
        let mut bytes = Vec::new();
        bytes.put_u32(MAGIC_IMAGES);
        bytes.put_u32(u32::MAX); // count
        bytes.put_u32(u32::MAX); // rows
        bytes.put_u32(u32::MAX); // cols
        bytes.extend_from_slice(&[0u8; 64]);
        assert!(matches!(
            parse_images(&bytes),
            Err(IdxError::Truncated { .. })
        ));
        // zero-pixel images with a huge count must not pass the size guard
        // (count * 0 == 0 fits any buffer) and provoke a giant allocation
        let mut zero_pixels = Vec::new();
        zero_pixels.put_u32(MAGIC_IMAGES);
        zero_pixels.put_u32(u32::MAX); // count
        zero_pixels.put_u32(0); // rows
        zero_pixels.put_u32(0); // cols
        assert!(matches!(
            parse_images(&zero_pixels),
            Err(IdxError::Truncated { .. })
        ));
    }

    #[test]
    fn combine_validates_counts() {
        let imgs = demo_images();
        assert!(matches!(
            combine(imgs.clone(), vec![1]),
            Err(IdxError::CountMismatch { .. })
        ));
        let set = combine(imgs, vec![1, 2, 3]).unwrap();
        assert_eq!(set.len(), 3);
    }

    #[test]
    fn load_dir_round_trip() {
        let dir = std::env::temp_dir().join(format!("cdl_idx_test_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let imgs = demo_images();
        std::fs::write(dir.join("train-images-idx3-ubyte"), write_images(&imgs)).unwrap();
        std::fs::write(
            dir.join("train-labels-idx1-ubyte"),
            write_labels(&[1, 2, 3]),
        )
        .unwrap();
        std::fs::write(dir.join("t10k-images-idx3-ubyte"), write_images(&imgs[..1])).unwrap();
        std::fs::write(dir.join("t10k-labels-idx1-ubyte"), write_labels(&[7])).unwrap();
        let (train, test) = load_mnist_dir(&dir).unwrap();
        assert_eq!(train.len(), 3);
        assert_eq!(test.len(), 1);
        assert_eq!(test.labels, vec![7]);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn missing_dir_is_io_error() {
        let missing = Path::new("/definitely/not/here");
        assert!(matches!(load_mnist_dir(missing), Err(IdxError::Io(_))));
    }
}
