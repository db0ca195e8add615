"""The gallery's map kinds, defined apart from `preservers` so that the command
line can list them without loading numpy and the matrix layers."""

GALLERY_KINDS = ("scaling", "det_twist", "diag_shift", "noninjective_jordan")
