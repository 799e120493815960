// Matrix-vector product and transposed product (paper Fig. 11).
params N;
assume N >= 3;
array a[N][N]; array x1[N]; array x2[N]; array y1[N]; array y2[N];
for (i = 0; i < N; i++)
  for (j = 0; j < N; j++)
    x1[i] = x1[i] + a[i][j] * y1[j];
for (i = 0; i < N; i++)
  for (j = 0; j < N; j++)
    x2[i] = x2[i] + a[j][i] * y2[j];
