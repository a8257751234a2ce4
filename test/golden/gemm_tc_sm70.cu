// Generated by Graphene (OCaml reproduction) for sm70
// kernel: gemm_tc_sm70 | launch: <<<1, 64>>>
#include <cuda_fp16.h>

extern "C" __global__ void gemm_tc_sm70(const half* __restrict__ A, const half* __restrict__ B, half* __restrict__ C, const half* __restrict__ bias) {
  int idx0 = threadIdx.x % 2;
  int idx1 = threadIdx.x / 2;
  int idx2 = threadIdx.x % 2 * 8;
  int idx3 = threadIdx.x % 4 * 8;
  int idx4 = threadIdx.x / 4;
  int idx5 = threadIdx.x % 4;
  int idx6 = threadIdx.x % 32 / 16 * 4;
  int idx7 = threadIdx.x % 16 / 4 % 2 * 8;
  int idx8 = threadIdx.x % 16 / 8 * 8 + threadIdx.x % 32 / 16 * 4;
  int idx9 = threadIdx.x / 32 * 16;
  int idx10 = threadIdx.x % 16 / 8 * 2 + threadIdx.x % 32 / 16;
  int idx11 = threadIdx.x / 32 * 4;
  int idx12 = threadIdx.x % 4 * 2;
  __shared__ half As[512];
  __shared__ half Bs[512];
  // __shared__ As (hoisted)
  // __shared__ Bs (hoisted)
  half c_out[4];
  half bias_rf[4];
  float acc[16];
  half a_frag[8];
  half b_frag[4];
  half a_stg[8];
  half b_stg[8];
  acc[0] = 0f;
  acc[1] = 0f;
  acc[2] = 0f;
  acc[3] = 0f;
  acc[4] = 0f;
  acc[5] = 0f;
  acc[6] = 0f;
  acc[7] = 0f;
  acc[8] = 0f;
  acc[9] = 0f;
  acc[10] = 0f;
  acc[11] = 0f;
  acc[12] = 0f;
  acc[13] = 0f;
  acc[14] = 0f;
  acc[15] = 0f;
  for (int kk = 0; kk < 2; kk += 1) {
    #pragma unroll
    for (int v = 0; v < 1; v += 1) {
      asm volatile("ld.global.v4.b16 {%0,%1,%2,%3}, [%4];\n"
          : "=h"(*reinterpret_cast<unsigned short*>(&a_stg[0])), "=h"(*reinterpret_cast<unsigned short*>(&a_stg[1])), "=h"(*reinterpret_cast<unsigned short*>(&a_stg[2])), "=h"(*reinterpret_cast<unsigned short*>(&a_stg[3]))
          : "l"(&A[(v * 32 + idx1) * 32 + (kk * 2 + idx0) * 8]));
      asm volatile("ld.global.v4.b16 {%0,%1,%2,%3}, [%4];\n"
          : "=h"(*reinterpret_cast<unsigned short*>(&a_stg[4])), "=h"(*reinterpret_cast<unsigned short*>(&a_stg[5])), "=h"(*reinterpret_cast<unsigned short*>(&a_stg[6])), "=h"(*reinterpret_cast<unsigned short*>(&a_stg[7]))
          : "l"(&A[(v * 32 + idx1) * 32 + (kk * 2 + idx0) * 8 + 4]));
      *reinterpret_cast<uint4*>(&As[(v * 32 + idx1) * 16 + idx2]) = *reinterpret_cast<const uint4*>(&a_stg[0]);
    }
    #pragma unroll
    for (int v = 0; v < 1; v += 1) {
      asm volatile("ld.global.v4.b16 {%0,%1,%2,%3}, [%4];\n"
          : "=h"(*reinterpret_cast<unsigned short*>(&b_stg[0])), "=h"(*reinterpret_cast<unsigned short*>(&b_stg[1])), "=h"(*reinterpret_cast<unsigned short*>(&b_stg[2])), "=h"(*reinterpret_cast<unsigned short*>(&b_stg[3]))
          : "l"(&B[(kk * 16 + (v * 16 + idx4)) * 32 + idx3]));
      asm volatile("ld.global.v4.b16 {%0,%1,%2,%3}, [%4];\n"
          : "=h"(*reinterpret_cast<unsigned short*>(&b_stg[4])), "=h"(*reinterpret_cast<unsigned short*>(&b_stg[5])), "=h"(*reinterpret_cast<unsigned short*>(&b_stg[6])), "=h"(*reinterpret_cast<unsigned short*>(&b_stg[7]))
          : "l"(&B[(kk * 16 + (v * 16 + idx4)) * 32 + idx3 + 4]));
      *reinterpret_cast<uint4*>(&Bs[(v * 16 + idx4) * 32 + idx3]) = *reinterpret_cast<const uint4*>(&b_stg[0]);
    }
    __syncthreads();
    #pragma unroll
    for (int ks = 0; ks < 4; ks += 1) {
      #pragma unroll
      for (int mt = 0; mt < 2; mt += 1) {
        #pragma unroll
        for (int i = 0; i < 4; i += 1) {
          a_frag[mt * 4 + i] = As[(mt * 16 + idx7 + (idx6 + i)) * 16 + (ks * 4 + idx5)];
        }
      }
      #pragma unroll
      for (int nt = 0; nt < 1; nt += 1) {
        *reinterpret_cast<uint2*>(&b_frag[nt * 4]) = *reinterpret_cast<const uint2*>(&Bs[(ks * 4 + idx5) * 32 + (idx9 + (nt * 16 + idx8))]);
      }
      #pragma unroll
      for (int mt = 0; mt < 2; mt += 1) {
        #pragma unroll
        for (int nt = 0; nt < 1; nt += 1) {
          asm volatile("mma.sync.aligned.m8n8k4.row.col.f32.f16.f16.f32 {%0,%1,%2,%3,%4,%5,%6,%7}, {%8,%9}, {%10,%11}, {%0,%1,%2,%3,%4,%5,%6,%7};\n"
              : "+f"(acc[mt * 8 + nt * 8]), "+f"(acc[mt * 8 + nt * 8 + 1]), "+f"(acc[mt * 8 + nt * 8 + 2]), "+f"(acc[mt * 8 + nt * 8 + 3]), "+f"(acc[mt * 8 + nt * 8 + 4]), "+f"(acc[mt * 8 + nt * 8 + 5]), "+f"(acc[mt * 8 + nt * 8 + 6]), "+f"(acc[mt * 8 + nt * 8 + 7])
              : "r"(*reinterpret_cast<uint32_t*>(&a_frag[mt * 4])), "r"(*reinterpret_cast<uint32_t*>(&a_frag[mt * 4 + 2])), "r"(*reinterpret_cast<uint32_t*>(&b_frag[nt * 4])), "r"(*reinterpret_cast<uint32_t*>(&b_frag[nt * 4 + 2])));
        }
      }
    }
    __syncthreads();
  }
  #pragma unroll
  for (int nt = 0; nt < 1; nt += 1) {
    #pragma unroll
    for (int mt = 0; mt < 2; mt += 1) {
      #pragma unroll
      for (int i = 0; i < 2; i += 1) {
        c_out[0] = __float2half(acc[mt * 8 + nt * 8 + i * 4]);
        c_out[1] = __float2half(acc[mt * 8 + nt * 8 + i * 4 + 1]);
        c_out[2] = __float2half(acc[mt * 8 + nt * 8 + i * 4 + 2]);
        c_out[3] = __float2half(acc[mt * 8 + nt * 8 + i * 4 + 3]);
        asm volatile("ld.global.v4.b16 {%0,%1,%2,%3}, [%4];\n"
            : "=h"(*reinterpret_cast<unsigned short*>(&bias_rf[0])), "=h"(*reinterpret_cast<unsigned short*>(&bias_rf[1])), "=h"(*reinterpret_cast<unsigned short*>(&bias_rf[2])), "=h"(*reinterpret_cast<unsigned short*>(&bias_rf[3]))
            : "l"(&bias[(idx11 + (nt * 4 + idx10)) * 4]));
        c_out[0] = __float2half((__half2float(c_out[0]) + __half2float(bias_rf[0])));
        c_out[1] = __float2half((__half2float(c_out[1]) + __half2float(bias_rf[1])));
        c_out[2] = __float2half((__half2float(c_out[2]) + __half2float(bias_rf[2])));
        c_out[3] = __float2half((__half2float(c_out[3]) + __half2float(bias_rf[3])));
        c_out[0] = __float2half(fmaxf(__half2float(c_out[0]), 0.0f));
        c_out[1] = __float2half(fmaxf(__half2float(c_out[1]), 0.0f));
        c_out[2] = __float2half(fmaxf(__half2float(c_out[2]), 0.0f));
        c_out[3] = __float2half(fmaxf(__half2float(c_out[3]), 0.0f));
        asm volatile("st.global.v4.b16 [%0], {%1,%2,%3,%4};\n"
            :: "l"(&C[(mt * 16 + (idx7 + (idx12 + i))) * 32 + (idx11 + (nt * 4 + idx10)) * 4]), "h"(*reinterpret_cast<unsigned short*>(&c_out[0])), "h"(*reinterpret_cast<unsigned short*>(&c_out[1])), "h"(*reinterpret_cast<unsigned short*>(&c_out[2])), "h"(*reinterpret_cast<unsigned short*>(&c_out[3])));
      }
    }
  }
}
