params N;
array a[N - 1]; array b[N];
for (i = 0; i <= N - 2; i++)
  b[i] = a[i + 1];
